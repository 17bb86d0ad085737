// The benchmark's own tests: its statistics and its open-loop accounting,
// against real HTTP servers on loopback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "dvfs/core/energy_model.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/svc/http.h"
#include "dvfs/svc/service.h"
#include "loadgen.h"
#include "ops.h"

namespace perfbench {
namespace {

/// Each operation is one GET; the 200 is its milestone.
class GetLogic final : public OpLogic {
 public:
  explicit GetLogic(std::int64_t burn_every_ns = 0, std::size_t every = 0)
      : burn_ns_(burn_every_ns), every_(every) {}
  const std::string& first(std::size_t) override { return request_; }
  Verdict on_response(std::size_t op, const Response& r) override {
    if (every_ != 0 && op % every_ == 0) {
      // A generator that falls behind: CPU work on its own thread.
      const std::int64_t until = now_ns() + burn_ns_;
      while (now_ns() < until) {
      }
    }
    if (r.status != 200) return {Verdict::Kind::kFail};
    return {Verdict::Kind::kDone, nullptr, true};
  }

 private:
  std::string request_ = http_request("GET", "/x");
  std::int64_t burn_ns_;
  std::size_t every_;
};

/// A server whose GET /x can stall once, for a fixed time.
struct StallServer {
  std::atomic<int> seen{0};
  int stall_at = -1;
  std::int64_t stall_ns = 0;
  std::atomic<std::int64_t> stall_begin{0};
  std::atomic<std::int64_t> stall_end{0};
  dvfs::obs::MetricsHttpServer server{{.host = "127.0.0.1", .port = 0},
                                      [] { return std::string(); }};

  StallServer() {
    server.add_route("GET", "/x", [this](const auto&) {
      if (seen.fetch_add(1) == stall_at) {
        stall_begin = now_ns();
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
        stall_end = now_ns();
      }
      return dvfs::obs::MetricsHttpServer::Response{200, "text/plain", "ok"};
    });
    server.start();
  }
};

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(999), 98);
  EXPECT_EQ(tail_percentile(100000), 99);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(15), 50);
  for (std::size_t n : {20u, 57u, 100u, 333u, 999u, 1000u, 1001u, 5000u}) {
    LatencySet s;
    for (std::size_t i = 1; i <= n; ++i) s.add(static_cast<double>(i));
    const int p = tail_percentile(n);
    const auto beyond = [&](double p_) {
      return n - static_cast<std::size_t>(s.percentile(p_));
    };
    EXPECT_GE(beyond(p), 10u) << n;
    if (p < 99) {
      EXPECT_LT(beyond(p + 1), 10u) << n;
    }
    EXPECT_EQ(s.tail(), s.percentile(p));
  }
}

TEST(OpenLoop, DueTimeLatencyChargesAStallToEveryLaterRequest) {
  StallServer srv;
  srv.stall_at = 20;
  srv.stall_ns = 60'000'000;
  LoadGen gen(srv.server.port(), 4);
  GetLogic logic;
  const OpenResult r = gen.run_open(logic, 150, 1000.0);
  ASSERT_EQ(r.failed, 0u);
  const std::int64_t begin = srv.stall_begin;
  const std::int64_t end = srv.stall_end;
  ASSERT_GT(end, begin);
  std::size_t charged = 0;
  for (std::size_t op = 0; op < 150; ++op) {
    const std::int64_t due = r.due_ns(op);
    if (due < begin || due >= end) continue;
    // Nothing due during the stall can be answered before it ends.
    EXPECT_GE(r.latency_us[op], static_cast<double>(end - due) / 1e3) << op;
    ++charged;
  }
  EXPECT_GE(charged, 50u);
  // Timed from the send instead, most of them would look fast; timed
  // from the due time, the tail carries the stall.
  EXPECT_GE(r.latencies().tail(), 10'000.0);
}

TEST(OpenLoop, A503CountsAsFailedAndMissesEveryLimit) {
  // Starved shards (max_batch 0) never drain, so once the 64-slot rings
  // are full every POST /submit is refused with 503.
  dvfs::obs::Registry registry;
  dvfs::svc::ServiceOptions opts;
  opts.shards = 1;
  opts.cores = 2;
  opts.ring_capacity = 64;
  opts.max_batch = 0;
  opts.registry = &registry;
  dvfs::svc::SchedulingService svc(dvfs::core::EnergyModel::icpp2014_table2(),
                                   {0.4, 0.1}, opts);
  svc.start();
  dvfs::obs::MetricsHttpServer server({.host = "127.0.0.1", .port = 0},
                                      [] { return std::string(); });
  dvfs::svc::register_service_routes(server, svc);
  server.start();

  std::deque<Body> bodies;
  for (TaskId id = 1; id <= 100; ++id) {
    bodies.push_back(make_body({Task{id, 1'000'000}}, 0));
  }
  SubmitLogic logic(bodies, svc, /*closed=*/false);
  LoadGen gen(server.port(), 4);
  const OpenResult r = gen.run_open(logic, bodies.size(), 2000.0);
  EXPECT_EQ(logic.accepted, 64u);
  EXPECT_EQ(r.failed, 36u);
  EXPECT_EQ(gen.stats().status_503, 36u);
  const LatencySet lat = r.latencies();
  EXPECT_EQ(lat.failed(), 36u);
  EXPECT_DOUBLE_EQ(lat.share_within(1e15), 0.64);
  EXPECT_EQ(lat.percentile(65), LatencySet::kFailed);
  EXPECT_LT(lat.percentile(64), LatencySet::kFailed);
  server.stop();
  svc.drain();
}

TEST(OpenLoop, LateDetectsAGeneratorThatFallsBehind) {
  StallServer srv;
  LoadGen gen(srv.server.port(), 4);
  GetLogic steady;
  const OpenResult ok = gen.run_open(steady, 250, 1000.0);
  // Every 25th response costs the generator 20 ms of its own time, so
  // the operations due meanwhile start late although slots are free.
  GetLogic slow(20'000'000, 25);
  const OpenResult behind = gen.run_open(slow, 250, 1000.0);
  ASSERT_EQ(ok.failed + behind.failed, 0u);
  LatencySet a;
  LatencySet b;
  for (double v : ok.late_us) a.add(v);
  for (double v : behind.late_us) b.add(v);
  EXPECT_LT(a.p50(), 500.0);
  EXPECT_LT(a.tail(), 5'000.0);
  EXPECT_GE(b.tail(), 10'000.0);
}

}  // namespace
}  // namespace perfbench
