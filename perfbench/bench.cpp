#include "bench.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr long kTmpfsMagic = 0x01021994;

/// The cgroup CPU quota as "<quota> <period>" ("max" when unlimited): cgroup
/// v2's cpu.max, else v1's cfs_quota_us and cfs_period_us.
std::string cgroup_cpu_max() {
  std::ifstream v2{"/sys/fs/cgroup/cpu.max"};
  std::string line;
  if (std::getline(v2, line) && !line.empty()) return line;
  std::ifstream quota{"/sys/fs/cgroup/cpu/cpu.cfs_quota_us"};
  std::ifstream period{"/sys/fs/cgroup/cpu/cpu.cfs_period_us"};
  std::string q, p;
  if (quota >> q && period >> p) return (q == "-1" ? std::string{"max"} : q) + " " + p;
  return "unavailable";
}

}  // namespace

void Report::fail(const std::string& why) {
  correct = false;
  failures.push_back(why);
}

void Report::layer(const std::string& name, double value, const std::string& unit,
                   std::optional<double> pct, bool on_path, const std::string& input) {
  metric(name, value, unit);
  ledger.push_back(LedgerRow{name, value, unit, pct, on_path, input});
}

double wall_s() { return clock_s(CLOCK_MONOTONIC); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

void reset_peak_rss() {
  // Hand freed heap back to the kernel first, so the high-water mark
  // restarts from what is live rather than from what malloc keeps.
  malloc_trim(0);
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

void repeat_for(double seconds, int min_reps, const std::function<void()>& rep) {
  const double start = wall_s();
  for (int done = 0; done < min_reps || wall_s() - start < seconds; ++done) rep();
}

SetupClock::SetupClock(const Options& options, std::function<double()> sample)
    : sample_{std::move(sample)}, smoke_{options.smoke} {}

void SetupClock::tick() {
  constexpr double kWindow = 0.1, kEvery = 2.0;  // seconds
  const bool first = last_window_ < 0.0;
  if (!first && (smoke_ || wall_s() - last_window_ < kEvery)) return;
  std::vector<double>& samples = first ? first_ : between_;
  if (first) {
    repeat_for(0.0, smoke_ ? 2 : 5, [&] { samples.push_back(sample_()); });
  } else {
    // The memory a window between timed repetitions uses, and the heap it
    // leaves behind, are kept out of the timed repetitions' peak.
    peak_mb_ = std::max(peak_mb_, perfbench::peak_rss_mb());
    repeat_for(kWindow, 2, [&] { samples.push_back(sample_()); });
    reset_peak_rss();
  }
  last_window_ = wall_s();
}

double SetupClock::peak_rss_mb() const { return std::max(peak_mb_, perfbench::peak_rss_mb()); }

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::size_t load_threads() { return std::max<std::size_t>(1, cpu_count() - 1); }

std::string filesystem_kind(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  return static_cast<long>(fs.f_type) == kTmpfsMagic ? "tmpfs" : "disk";
}

void make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error{"perfbench: cannot create " + dir + ": " + ec.message()};
}

DigestBuf::int_type DigestBuf::overflow(int_type ch) {
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
  }
  return traits_type::not_eof(ch);
}

std::streamsize DigestBuf::xsputn(const char* s, std::streamsize n) {
  std::uint64_t h = hash_;
  for (std::streamsize i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(s[i]);
    h *= 0x100000001b3ull;
  }
  hash_ = h;
  bytes_ += static_cast<std::uint64_t>(n);
  return n;
}

reorder::report::Json machine_descriptor(const Options& options, const Report& report) {
  using reorder::report::Json;
  Json j = Json::object();
  j.set("nproc", static_cast<std::uint64_t>(cpu_count()));
  j.set("cgroup_cpu_max", cgroup_cpu_max());
#if defined(__clang__)
  j.set("compiler", std::string{"clang "} + __clang_version__);
#elif defined(__GNUC__)
  j.set("compiler", std::string{"gcc "} + __VERSION__);
#else
  j.set("compiler", std::string{"unknown"});
#endif
  j.set("build_type", std::string{PERFBENCH_BUILD_TYPE});
  j.set("workload", options.workload);
  j.set("threads", static_cast<std::uint64_t>(report.threads));
  j.set("checkpoint_fs", report.checkpoint_fs);
  j.set("smoke", options.smoke);
  return j;
}

}  // namespace perfbench
