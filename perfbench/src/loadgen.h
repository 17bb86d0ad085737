/// \file loadgen.h
/// \brief Single-threaded HTTP/1.1 load generator for the scheduling
///        daemon benchmark.
///
/// One thread drives at most `slots` connections at once with
/// non-blocking sockets and poll(). Every exchange is one connection
/// (the daemon answers `Connection: close`): connect, send a request
/// that was fully built during set-up, read the response to EOF.
///
/// An *operation* is one or more exchanges on the same slot, chained by
/// an `OpLogic` (a POST alone; or a POST, polls and a trace fetch). Two
/// load shapes run operations:
///
///  * `run_closed`: a fixed list of operations, each started as soon as
///    a slot is free. An operation the logic asks to retry goes back to
///    the queue after a back-off.
///  * `run_open`: operation i is due at `start + i / rate`, whether or
///    not earlier ones finished. Latency runs from the due time to the
///    operation's milestone, so a stall is charged to every operation
///    that was due while it lasted. `late_us` records how far the
///    generator itself started an operation after it could have.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds a complete HTTP/1.1 request (headers and body).
[[nodiscard]] std::string http_request(const std::string& method,
                                       const std::string& path,
                                       const std::string& body = "");

/// The highest whole percentile, at most 99, that leaves at least ten
/// samples beyond its nearest rank; 50 when even the median does not.
[[nodiscard]] int tail_percentile(std::size_t n);

/// A latency sample set where a failed operation counts as infinitely
/// late: it misses every limit and sorts above every success.
class LatencySet {
 public:
  static constexpr double kFailed = std::numeric_limits<double>::infinity();

  void add(double us) { values_.push_back(us); }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] std::size_t failed() const;
  /// Nearest-rank percentile (0 < p <= 100); kFailed when it lands on a
  /// failure, 0 on an empty set.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50); }
  /// The tail at `tail_percentile(size())`.
  [[nodiscard]] double tail() const {
    return percentile(tail_percentile(size()));
  }
  /// Share of operations at or under `limit_us` (failures never are).
  [[nodiscard]] double share_within(double limit_us) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void sort() const;
};

/// One finished exchange.
struct Response {
  int status = 0;       ///< 0 on a socket error
  std::string body;
  std::int64_t start_ns = 0;      ///< socket() called
  std::int64_t connected_ns = 0;  ///< connection established
  std::int64_t done_ns = 0;       ///< response read to EOF
  std::size_t bytes_out = 0;
  std::size_t bytes_in = 0;
};

/// What happens after an exchange of an operation.
struct Verdict {
  enum class Kind : std::uint8_t {
    kNext,   ///< send `next` as the operation's next exchange
    kDone,   ///< operation finished
    kRetry,  ///< closed loop: run the whole operation again later
    kFail,   ///< operation failed
  };
  Kind kind = Kind::kDone;
  const std::string* next = nullptr;
  /// This exchange reached the operation's latency endpoint.
  bool milestone = false;
};

/// Maps operations to exchanges. Runs on the generator thread, between
/// exchanges, so it should be cheap.
class OpLogic {
 public:
  virtual ~OpLogic() = default;
  [[nodiscard]] virtual const std::string& first(std::size_t op) = 0;
  virtual Verdict on_response(std::size_t op, const Response& r) = 0;
  /// Closed loop only: operations that became runnable after the queue
  /// emptied (resubmissions). Appended to the queue by the runner.
  virtual void take_new_ops(std::vector<std::size_t>& /*out*/) {}
  /// Closed loop only: true while the logic may still produce new ops.
  [[nodiscard]] virtual bool pending() { return false; }
};

/// Exchange-level counters, kept for every phase.
struct ExchangeStats {
  std::uint64_t exchanges = 0;
  std::uint64_t bytes = 0;     ///< sent + received
  std::uint64_t status_503 = 0;
  std::uint64_t errors = 0;    ///< socket errors (status 0)
  std::vector<double> connect_us;
  std::vector<double> request_us;  ///< send start to EOF
};

struct OpenResult {
  /// Per operation, in operation order: due time → milestone, or
  /// LatencySet::kFailed when the operation failed before it.
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::uint64_t failed = 0;
  std::int64_t first_due_ns = 0;
  double period_ns = 0.0;

  /// When operation `op` was due.
  [[nodiscard]] std::int64_t due_ns(std::size_t op) const {
    return first_due_ns +
           static_cast<std::int64_t>(static_cast<double>(op) * period_ns);
  }
  [[nodiscard]] LatencySet latencies() const {
    LatencySet s;
    for (double v : latency_us) s.add(v);
    return s;
  }
};

struct ClosedResult {
  std::uint64_t ops_done = 0;
  std::uint64_t retries = 0;
  std::uint64_t failed = 0;
};

class LoadGen {
 public:
  LoadGen(std::uint16_t port, std::size_t slots);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// One exchange on its own, blocking (set-up probes, sampled checks).
  Response exchange(const std::string& request);

  ClosedResult run_closed(OpLogic& logic, std::size_t ops,
                          std::int64_t retry_backoff_ns);
  OpenResult run_open(OpLogic& logic, std::size_t ops, double rate_per_s);

  [[nodiscard]] const ExchangeStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ExchangeStats{}; }

 private:
  struct Slot;
  void begin_exchange(Slot& s, const std::string& request);
  /// Advances every busy slot; returns slots whose exchange finished.
  void pump(std::int64_t deadline_ns, std::vector<std::size_t>& finished);
  void finish(Slot& s, int status_override);

  std::uint16_t port_;
  std::vector<Slot> slots_;
  ExchangeStats stats_;
};

}  // namespace perfbench
