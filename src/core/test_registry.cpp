#include "core/test_registry.hpp"

#include "core/testbed.hpp"

namespace reorder::core {

namespace {

template <typename Opt>
Opt options_or_default(const TestSpec& spec) {
  if (std::holds_alternative<std::monostate>(spec.options)) return Opt{};
  if (const Opt* opt = std::get_if<Opt>(&spec.options)) return *opt;
  throw std::invalid_argument{"TestRegistry: TestSpec for '" + spec.technique +
                              "' carries options of a different technique"};
}

std::uint16_t port_or(const TestSpec& spec, std::uint16_t fallback) {
  return spec.port != 0 ? spec.port : fallback;
}

}  // namespace

TestRegistry::TestRegistry()
    : factories_{
          {"single-connection",
           [](probe::ProbeHost& host, tcpip::Ipv4Address target, const TestSpec& spec) {
             return std::make_unique<SingleConnectionTest>(
                 host, target, port_or(spec, kDiscardPort),
                 options_or_default<SingleConnectionOptions>(spec));
           }},
          {"single-connection-inorder",
           [](probe::ProbeHost& host, tcpip::Ipv4Address target, const TestSpec& spec) {
             auto opts = options_or_default<SingleConnectionOptions>(spec);
             opts.reversed_order = false;
             return std::make_unique<SingleConnectionTest>(host, target,
                                                           port_or(spec, kDiscardPort), opts);
           }},
          {"dual-connection",
           [](probe::ProbeHost& host, tcpip::Ipv4Address target, const TestSpec& spec) {
             return std::make_unique<DualConnectionTest>(
                 host, target, port_or(spec, kDiscardPort),
                 options_or_default<DualConnectionOptions>(spec));
           }},
          {"syn",
           [](probe::ProbeHost& host, tcpip::Ipv4Address target, const TestSpec& spec) {
             return std::make_unique<SynTest>(host, target, port_or(spec, kDiscardPort),
                                              options_or_default<SynTestOptions>(spec));
           }},
          {"data-transfer",
           [](probe::ProbeHost& host, tcpip::Ipv4Address target, const TestSpec& spec) {
             return std::make_unique<DataTransferTest>(
                 host, target, port_or(spec, kHttpPort),
                 options_or_default<DataTransferOptions>(spec));
           }},
          {"ping-burst",
           [](probe::ProbeHost& host, tcpip::Ipv4Address target, const TestSpec& spec) {
             return std::make_unique<PingBurstTest>(host, target,
                                                    options_or_default<PingBurstOptions>(spec));
           }},
      },
      aliases_{
          {"single", "single-connection"},
          {"single-inorder", "single-connection-inorder"},
          {"dual", "dual-connection"},
          {"data", "data-transfer"},
          {"ping", "ping-burst"},
      } {}

std::map<std::string, TestRegistry::Factory>::const_iterator TestRegistry::find(
    const std::string& name) const {
  const auto alias = aliases_.find(name);
  return factories_.find(alias != aliases_.end() ? alias->second : name);
}

bool TestRegistry::contains(const std::string& name) const {
  return find(name) != factories_.end();
}

const std::string& TestRegistry::canonical_name(const std::string& name) const {
  const auto it = find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& [technique, _] : factories_) {
      known += known.empty() ? technique : ", " + technique;
    }
    throw std::invalid_argument{"TestRegistry: unknown technique '" + name + "' (known: " + known +
                                ")"};
  }
  return it->first;
}

std::vector<std::string> TestRegistry::technique_names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, _] : factories_) names.push_back(name);
  return names;
}

std::unique_ptr<ReorderTest> TestRegistry::create(probe::ProbeHost& host,
                                                  tcpip::Ipv4Address target,
                                                  const TestSpec& spec) const {
  return factories_.at(canonical_name(spec.technique))(host, target, spec);
}

const TestRegistry& TestRegistry::global() {
  static const TestRegistry* const registry = new TestRegistry;
  return *registry;
}

std::unique_ptr<ReorderTest> make_registered_test(probe::ProbeHost& host,
                                                  tcpip::Ipv4Address target,
                                                  const TestSpec& spec) {
  return TestRegistry::global().create(host, target, spec);
}

}  // namespace reorder::core
