#include "arnet/runner/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <streambuf>
#include <thread>

#include "arnet/check/assert.hpp"

namespace arnet::runner {

int ExperimentRunner::hardware_jobs() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ExperimentRunner::ExperimentRunner(Config cfg)
    : jobs_(cfg.jobs > 0 ? cfg.jobs : hardware_jobs()), root_seed_(cfg.root_seed) {}

void ExperimentRunner::for_each(std::size_t runs, const RunFn& fn) {
  if (runs == 0) return;

  auto execute = [&](std::size_t index) {
    RunContext ctx;
    ctx.run_index = index;
    ctx.seed = derive_seed(root_seed_, index);
    fn(ctx);
  };

  const std::size_t workers =
      std::min(runs, static_cast<std::size_t>(jobs_));
  if (workers <= 1) {
    for (std::size_t i = 0; i < runs; ++i) execute(i);
    return;
  }

  // Dynamic work stealing over a shared index counter: runs are uneven (a
  // placement search instance is not a WiFi cell), so static striping would
  // leave workers idle. Determinism is unaffected — no run reads another
  // run's state, and all aggregation happens index-ordered after the join.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= runs) return;
      try {
        execute(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

obs::MetricsRegistry ExperimentRunner::run_merged(std::size_t runs, const RunFn& fn) {
  std::vector<obs::MetricsRegistry> per_run(runs);
  for_each(runs, [&](RunContext& ctx) {
    fn(ctx);
    per_run[ctx.run_index] = std::move(ctx.metrics);
  });
  obs::MetricsRegistry merged;
  for (const obs::MetricsRegistry& r : per_run) merged.merge_from(r);
  return merged;
}

std::string parse_string_flag(int argc, char** argv, const char* name, std::string fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') return arg + len + 1;
    if (std::strcmp(arg, name) == 0) {
      ARNET_CHECK(i + 1 < argc, name, " needs a value");
      return argv[i + 1];
    }
  }
  return fallback;
}

namespace {

/// Index of the flag called `name`, or flags.size() when none is.
std::size_t find_flag(const std::vector<Flag>& flags, std::string_view name) {
  const auto it =
      std::find_if(flags.begin(), flags.end(), [&](const Flag& f) { return name == f.name; });
  return static_cast<std::size_t>(it - flags.begin());
}

/// from_chars takes no whitespace or overflow (nor, for unsigned types, a
/// sign), so only a full decimal `T` passes.
template <typename T>
bool full_decimal(const std::string& value, T& out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

CommandLine::CommandLine(int argc, char** argv, std::vector<Flag> flags)
    : flags_(std::move(flags)), values_(flags_.size()) {
  std::string error;
  for (int i = 1; i < argc && error.empty(); ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const std::size_t k = find_flag(flags_, name);
    if (k == flags_.size()) {
      error = "unknown flag '" + name + "'";
    } else if (values_[k]) {
      error = name + " is given twice";
    } else if (eq == std::string_view::npos && i + 1 == argc) {
      error = name + " needs a value";
    } else {
      values_[k] = eq == std::string_view::npos ? argv[++i] : arg.substr(eq + 1);
    }
  }
  std::string usage = flags_.empty() ? " takes no flags" : " takes:";
  for (const Flag& f : flags_) {
    usage += "\n  " + std::string(f.name) + " (default \"" + f.fallback + "\")  " + f.help;
  }
  ARNET_CHECK(error.empty(), error, "; ", argv[0], usage);
}

std::string CommandLine::str(std::string_view name) const {
  const std::size_t k = find_flag(flags_, name);
  ARNET_CHECK(k < flags_.size(), name, " is read but not declared");
  return values_[k].value_or(flags_[k].fallback);
}

bool CommandLine::yes(std::string_view name) const {
  const std::string value = str(name);
  ARNET_CHECK(value == "yes" || value == "no", name, " must be yes or no, got '", value, "'");
  return value == "yes";
}

int CommandLine::jobs() const {
  const std::string value = str("--jobs");
  int n = 0;
  ARNET_CHECK(full_decimal(value, n) && n >= 0,
              "--jobs must be a non-negative decimal, got '", value, "'");
  return n;
}

std::uint64_t CommandLine::seed() const {
  const std::string value = str("--seed");
  std::uint64_t seed = 0;
  ARNET_CHECK(full_decimal(value, seed), "--seed must be a decimal uint64, got '", value, "'");
  return seed;
}

std::string out_path(const std::string& dir, const std::string& file) {
  std::filesystem::create_directories(dir);
  return dir + "/" + file;
}

namespace {

/// streambuf that forwards every byte to two underlying buffers. Only the
/// console buffer's errors are reported upward: losing the report copy must
/// never turn a successful experiment run into a failed one.
class TeeBuf : public std::streambuf {
 public:
  TeeBuf(std::streambuf* console, std::streambuf* copy)
      : console_(console), copy_(copy) {}

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return traits_type::not_eof(ch);
    copy_->sputc(static_cast<char>(ch));
    return console_->sputc(static_cast<char>(ch));
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    copy_->sputn(s, n);
    return console_->sputn(s, n);
  }

  int sync() override {
    copy_->pubsync();
    return console_->pubsync();
  }

 private:
  std::streambuf* console_;
  std::streambuf* copy_;
};

}  // namespace

struct ReportTee::Impl {
  std::ofstream file;
  std::unique_ptr<TeeBuf> tee;
  std::streambuf* saved = nullptr;
};

ReportTee::ReportTee(const std::string& dir, const std::string& file)
    : impl_(std::make_unique<Impl>()) {
  impl_->file.open(out_path(dir, file));
  if (!impl_->file.is_open()) return;
  impl_->saved = std::cout.rdbuf();
  impl_->tee = std::make_unique<TeeBuf>(impl_->saved, impl_->file.rdbuf());
  std::cout.rdbuf(impl_->tee.get());
}

ReportTee::~ReportTee() {
  if (impl_->saved) {
    std::cout.flush();
    std::cout.rdbuf(impl_->saved);
  }
}

}  // namespace arnet::runner
