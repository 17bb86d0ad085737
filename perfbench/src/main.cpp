/// perfbench: the scheduling daemon's benchmark of record.
///
/// Drives the real serving stack — `svc::SchedulingService` with the
/// `dvfs_execute --serve` defaults, `svc::register_service_routes` and
/// `obs::MetricsHttpServer` — over loopback from one generator thread
/// with at most four connections in flight, and prints one JSON line.
///
///   perfbench --workload http-batch --seed 7 --seconds 48 --trace 0
///
/// A bare run (`--trace 0`) is rounds of a closed-loop phase (a fixed
/// operation count, so the final queue depth and the per-task LMC work
/// stay the same on every commit) and an open-loop phase at a fixed
/// absolute rate, each on a fresh daemon, and reports the end-to-end
/// metrics. A traced run (`--trace 1`) alternates bare and profiled
/// closed phases, runs a profiled open phase, times each layer's public
/// functions on the last profiled phase's own inputs, and reports the
/// per-layer ledger. Every phase ends with correctness checks; a
/// violation exits 1.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dvfs/core/energy_model.h"
#include "dvfs/core/online_lmc.h"
#include "dvfs/obs/json.h"
#include "dvfs/obs/prof.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/obs/reqtrace.h"
#include "dvfs/svc/http.h"
#include "dvfs/svc/service.h"
#include "dvfs/workload/generators.h"
#include "loadgen.h"
#include "ops.h"

namespace perfbench {
namespace {

using dvfs::Cycles;
using dvfs::core::TaskId;
namespace obs = dvfs::obs;
namespace svc = dvfs::svc;

// ------------------------------------------------------------ settings

constexpr std::size_t kShards = 2;
constexpr std::size_t kCoresPerShard = 2;

/// The daemon as `dvfs_execute --serve` builds it by default.
svc::ServiceOptions serve_options(obs::Registry* registry) {
  svc::ServiceOptions o;
  o.shards = kShards;
  o.cores = kShards * kCoresPerShard;
  o.ring_capacity = std::size_t{1} << 16;
  o.max_batch = 256;
  o.steal_ratio = 4.0;
  o.status_capacity = std::size_t{1} << 20;
  o.time_scale = 0.0;
  o.registry = registry;
  return o;
}
constexpr dvfs::core::CostParams kParams{.re = 0.4, .rt = 0.1};
constexpr std::size_t kConnections = 4;
constexpr std::size_t kBatchTasks = 64;
/// Rounds (a closed and an open phase each) per bare run, and closed
/// phase pairs (bare, profiled) per traced run.
constexpr std::size_t kRounds = 8;
constexpr std::size_t kTracedRounds = 4;
/// Open-phase latency tails are taken per window of this many
/// consecutive operations (p99 leaves exactly 10 samples beyond it).
constexpr std::size_t kWindowOps = 1000;
/// GET /schedule answers compared field by field after each phase.
constexpr std::size_t kSampledReads = 64;
/// Closed loop: a refused (503) operation is retried after this pause.
constexpr std::int64_t kRetryBackoffNs = 2'000'000;

struct WorkloadSpec {
  std::string name;
  std::size_t tasks_per_body;
  bool journey;
  bool recorder;
  /// Closed phase: operations (bodies or journeys), fixed per workload.
  std::size_t closed_ops;
  /// Open phase: fixed absolute rate (operations/s), about half this
  /// workload's closed-loop capacity on the reference container; a
  /// third on http-single, whose single-threaded HTTP server would
  /// otherwise turn small changes in host speed into large changes in
  /// queueing and so in the tail.
  double open_rate;
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"http-single", 1, false, false, 30'000, 9'000.0},
      {"http-batch", kBatchTasks, false, true, 8'000, 3'900.0},
      {"http-journey", 1, true, false, 15'000, 4'300.0},
  };
  return specs;
}

// ------------------------------------------------------------- checks

struct CheckError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckError(what);
}

// -------------------------------------------------------------- inputs

/// Task cycle counts drawn from the Judgegirl submission-cost
/// distribution (non-interactive judging tasks only).
std::vector<Cycles> judgegirl_cycles(std::size_t n, std::uint64_t seed) {
  dvfs::workload::JudgegirlConfig cfg;
  cfg.non_interactive_tasks = n;
  cfg.interactive_tasks = 0;
  const dvfs::workload::Trace trace = dvfs::workload::generate_judgegirl(cfg, seed);
  std::vector<Cycles> out;
  out.reserve(n);
  for (const auto& t : trace.tasks()) out.push_back(t.cycles);
  return out;
}

/// Bodies for `ops` operations over tasks with ids from `first_id`. A
/// batch body holds tasks of one shard only, so a full ring refuses
/// whole bodies and a partial acceptance can be resolved exactly.
std::deque<Body> make_bodies(const WorkloadSpec& w, std::size_t ops,
                             TaskId first_id, const std::vector<Cycles>& cyc,
                             std::size_t& cyc_pos) {
  std::deque<Body> bodies;
  std::vector<std::vector<Task>> open(kShards);
  TaskId id = first_id;
  while (bodies.size() < ops) {
    const Task t{id, cyc[cyc_pos++ % cyc.size()]};
    ++id;
    if (w.tasks_per_body == 1) {
      bodies.push_back(make_body({t}, svc::SchedulingService::route(t.id, kShards)));
      continue;
    }
    const std::size_t s = svc::SchedulingService::route(t.id, kShards);
    open[s].push_back(t);
    if (open[s].size() == w.tasks_per_body) {
      bodies.push_back(make_body(std::move(open[s]), s));
      open[s].clear();
    }
  }
  return bodies;
}

// -------------------------------------------------------------- daemon

/// The serving stack of `dvfs_execute --serve`, on an ephemeral port.
/// Members are destroyed bottom-up: the API closes before the service
/// drains, as in the daemon's shutdown.
struct Daemon {
  obs::Registry registry;
  std::unique_ptr<obs::Recorder> recorder;
  std::unique_ptr<svc::SchedulingService> svc;
  std::unique_ptr<obs::MetricsHttpServer> server;
  std::unique_ptr<LoadGen> gen;
  double setup_s = 0.0;

  /// Builds and starts everything, then POSTs `probe` and waits for its
  /// 202: set-up time is construction through that first answer.
  Daemon(bool with_recorder, const Body& probe) {
    const std::int64_t t0 = now_ns();
    const svc::ServiceOptions opts = serve_options(&registry);
    svc = std::make_unique<svc::SchedulingService>(
        dvfs::core::EnergyModel::icpp2014_table2(), kParams, opts);
    if (with_recorder) {
      recorder = std::make_unique<obs::Recorder>(opts.shards);
      svc->set_recorder(recorder.get());
    }
    svc->start();
    svc::SchedulingService* s = svc.get();
    obs::Registry* r = &registry;
    server = std::make_unique<obs::MetricsHttpServer>(
        obs::MetricsHttpServer::Options{.host = "127.0.0.1", .port = 0},
        [r, s] { return obs::prometheus_text(*r, &s->exemplars()); });
    svc::register_service_routes(*server, *svc);
    server->start();
    gen = std::make_unique<LoadGen>(server->port(), kConnections);
    const Response first = gen->exchange(probe.request);
    require(first.status == 202,
            "set-up probe answered " + std::to_string(first.status));
    setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    gen->reset_stats();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

/// Tasks placed at least once. `placed()` also counts the second
/// placement of a stolen task; reading it before `stolen()` never
/// overstates the result.
inline std::uint64_t first_placements(const dvfs::svc::SchedulingService& s) {
  const std::uint64_t placed = s.placed();
  return placed - std::min(placed, s.stolen());
}

void wait_placed(const svc::SchedulingService& s, std::uint64_t accepted) {
  while (first_placements(s) < accepted) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

// ------------------------------------------------------- phase ledger

struct Placed {
  TaskId id = 0;
  Cycles cycles = 0;
  double placed_s = 0.0;
  std::size_t timeline = 0;  ///< index into the kept timelines
};

/// Everything one phase measured and checked.
struct PhaseResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t tasks = 0;       ///< tasks placed (probe included)
  std::uint64_t ops_done = 0;
  std::uint64_t attempted = 0;   ///< operations, retries included
  std::uint64_t failed = 0;      ///< refused or failed operations
  std::uint64_t hard_errors = 0;
  double cost_per_task = 0.0;
  ExchangeStats http;
  OpenResult open;
  std::uint64_t polls = 0;
  std::uint64_t submits_attempted = 0;
  std::uint64_t submits_rejected = 0;
  std::uint64_t stolen = 0;
  double drain_batch_mean = 0.0;
  double ring_wait_us_p50 = 0.0;
  double events_per_task = 0.0;
  std::uint64_t rec_recorded = 0;
  std::uint64_t rec_dropped = 0;
  // Traced runs only: layer timings on this phase's inputs.
  double json_ns_per_task = 0.0;
  double lmc_ns_per_task = 0.0;
  double append_ns_per_task = 0.0;
  double status_read_ns = 0.0;
  double trace_get_ns = 0.0;
  double record_ns_per_event = 0.0;
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Nearest-rank quantile, 0 < q <= 1.
double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Median wall time of `reps` runs of `fn`, in ns.
double time_ns(const std::function<void()>& fn, int reps = 3) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t a = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - a));
  }
  return median_of(t);
}

std::vector<dvfs::core::CostTable> shard_tables(std::size_t cores) {
  return std::vector<dvfs::core::CostTable>(
      cores, dvfs::core::CostTable(dvfs::core::EnergyModel::icpp2014_table2(),
                                   kParams));
}

/// Single-thread LMC replay of each shard's placement stream; returns
/// the summed queue cost.
double replay_cost(const std::vector<std::vector<Placed>>& streams) {
  double cost = 0.0;
  for (const auto& stream : streams) {
    dvfs::core::LmcScheduler lmc(shard_tables(kCoresPerShard));
    for (const Placed& p : stream) lmc.place_non_interactive(p.cycles, p.id);
    cost += lmc.total_queue_cost();
  }
  return cost;
}

/// The six events a shard records per placed task.
void record_task_events(obs::RecorderChannel& ch, const obs::reqtrace::Timeline& t,
                        Cycles cycles) {
  using obs::dfr::Event;
  using obs::dfr::EventType;
  static constexpr EventType kTypes[] = {
      EventType::kSubmitRecv, EventType::kRingEnqueue, EventType::kRingDequeue,
      EventType::kTaskArrival, EventType::kPlacement, EventType::kShardQueue};
  for (std::size_t i = 0; i < 6; ++i) {
    Event e;
    e.type = static_cast<std::uint8_t>(kTypes[i]);
    e.time_s = t.steps[std::min(i, t.steps.size() - 1)].t_s;
    e.task = t.task;
    e.u0 = i == 3 || i == 4 ? cycles : t.trace_id;
    ch.record(e);
  }
}

/// Drains the daemon, checks it, and fills the per-phase ledger.
void check_phase(Daemon& d, const std::deque<Body>& bodies, const Body& probe,
                 std::uint64_t accepted, bool traced, std::uint64_t seed,
                 PhaseResult& out) {
  svc::SchedulingService& s = *d.svc;
  wait_placed(s, accepted);
  s.drain();
  out.tasks = accepted;
  require(first_placements(s) == accepted,
          "placed " + std::to_string(s.placed()) + " (" +
              std::to_string(s.stolen()) + " of them steals) != accepted " +
              std::to_string(accepted));
  require(s.submitted() == accepted, "submitted != accepted");
  std::size_t queued = 0;
  double cost = 0.0;
  for (std::size_t i = 0; i < s.shards(); ++i) {
    queued += s.shard_queue_len(i);
    cost += s.shard_queue_cost(i);
  }
  require(queued == accepted, "queued tasks != accepted (a task placed twice?)");
  out.cost_per_task = cost / static_cast<double>(accepted);
  out.stolen = s.stolen();
  out.submits_rejected = s.rejected();
  out.submits_attempted = s.submitted() + s.rejected();
  const obs::Histogram& batch = d.registry.histogram("svc.admission.batch");
  out.drain_batch_mean = batch.mean();

  // Every accepted id: one status, one placement per hop. Resubmitted
  // bodies repeat ids of the workload's own bodies, so those cover all.
  std::vector<obs::reqtrace::Timeline> timelines;  // kept for layer timings
  std::vector<std::vector<Placed>> streams(s.shards());
  std::vector<double> ring_wait;
  std::vector<TaskId> placed_ids;
  const auto visit = [&](const Task& t) {
    const auto st = s.status(t.id);
    if (!st) return;
    auto tl = s.traces().get(t.id);
    require(tl.has_value(), "placed task " + std::to_string(t.id) + " has no trace");
    std::size_t placements = 0;
    double last_place = 0.0;
    std::uint32_t last_core = 0;
    for (const auto& step : tl->steps) {
      if (step.stage == obs::reqtrace::Stage::kPlacement) {
        ++placements;
        last_place = step.t_s;
        last_core = step.a;
      }
    }
    require(placements == 1 + tl->hops(),
            "task " + std::to_string(t.id) + " placed " +
                std::to_string(placements) + " times over " +
                std::to_string(tl->hops()) + " hops");
    require(st->core == last_core && st->cycles == t.cycles,
            "status of task " + std::to_string(t.id) + " disagrees with its trace");
    streams[st->shard].push_back({t.id, t.cycles, last_place, timelines.size()});
    ring_wait.push_back(tl->durations().ring_wait_s * 1e6);
    placed_ids.push_back(t.id);
    if (traced) timelines.push_back(std::move(*tl));
  };
  visit(probe.tasks[0]);
  for (const Body& b : bodies) {
    for (const Task& t : b.tasks) visit(t);
  }
  require(placed_ids.size() == accepted,
          std::to_string(placed_ids.size()) + " tasks have a status, " +
              std::to_string(accepted) + " were accepted");
  out.ring_wait_us_p50 = median_of(std::move(ring_wait));
  for (auto& stream : streams) {
    std::sort(stream.begin(), stream.end(),
              [](const Placed& a, const Placed& b) { return a.placed_s < b.placed_s; });
  }
  if (out.stolen == 0) {
    const double replay = replay_cost(streams);
    require(std::abs(replay - cost) <= 1e-9 * std::abs(cost),
            "queue cost " + std::to_string(cost) + " != single-thread replay " +
                std::to_string(replay));
  }

  // Sampled reads over HTTP agree with the status store and with the
  // route: a task sits on its shard's cores unless it was stolen.
  std::mt19937_64 rng(seed ^ 0x5ca1ab1eULL);
  std::uniform_int_distribution<std::size_t> pick(0, placed_ids.size() - 1);
  const std::size_t per_shard = s.cores() / s.shards();
  for (std::size_t k = 0; k < kSampledReads; ++k) {
    const TaskId id = placed_ids[pick(rng)];
    const Response r =
        d.gen->exchange(http_request("GET", "/schedule/" + std::to_string(id)));
    require(r.status == 200, "GET /schedule/" + std::to_string(id) + " answered " +
                                 std::to_string(r.status));
    const obs::Json j = obs::Json::parse(r.body);
    const auto st = s.status(id);
    const auto core = static_cast<std::size_t>(j.at("core").as_double());
    const bool stolen = j.at("stolen").as_bool();
    require(stolen ||
                core / per_shard == svc::SchedulingService::route(id, s.shards()),
            "task " + std::to_string(id) + " on core " + std::to_string(core) +
                " outside its shard");
    require(st && st->core == core &&
                st->shard == static_cast<std::size_t>(j.at("shard").as_double()) &&
                st->rate_idx ==
                    static_cast<std::size_t>(j.at("rate_idx").as_double()) &&
                st->stolen == stolen &&
                st->cycles == static_cast<Cycles>(j.at("cycles").as_double()) &&
                j.at("state").as_string() == svc::to_string(st->state) &&
                j.at("trace_id").as_string() ==
                    obs::reqtrace::trace_id_hex(st->trace) &&
                std::abs(j.at("marginal_cost").as_double() - st->marginal) <=
                    1e-9 * std::abs(st->marginal),
            "GET /schedule/" + std::to_string(id) + " disagrees with status()");
  }

  if (d.recorder) {
    for (std::size_t i = 0; i < s.shards(); ++i) {
      out.rec_recorded += d.recorder->channel(i).recorded();
      out.rec_dropped += d.recorder->channel(i).dropped();
    }
    // Two run-header events per channel precede the per-task events.
    out.events_per_task =
        static_cast<double>(out.rec_recorded + out.rec_dropped - 2 * s.shards()) /
        static_cast<double>(accepted);
  }

  if (!traced) return;
  // Layer timings: each layer's public entry points, single-threaded, on
  // exactly this phase's inputs.
  const double n = static_cast<double>(accepted);
  std::size_t body_tasks = 0;
  for (const Body& b : bodies) body_tasks += b.tasks.size();
  out.json_ns_per_task = time_ns([&] {
                           for (const Body& b : bodies) {
                             const obs::Json j = obs::Json::parse(b.json());
                             if (!j.is_object()) std::abort();
                           }
                         }) /
                         static_cast<double>(body_tasks);
  out.lmc_ns_per_task = time_ns([&] { (void)replay_cost(streams); }) / n;
  out.append_ns_per_task =
      time_ns([&] {
        obs::reqtrace::TraceStore store(serve_options(nullptr).status_capacity);
        for (const auto& t : timelines) {
          for (std::size_t i = 0; i + 5 <= t.steps.size(); i += 5) {
            const auto* st = &t.steps[i];
            store.append(t.task, t.trace_id, {st[0], st[1], st[2], st[3], st[4]});
          }
        }
      }) /
      n;
  out.status_read_ns = time_ns([&] {
                         for (const auto& t : timelines) {
                           if (!s.status(t.task)) std::abort();
                         }
                       }) /
                       n;
  out.trace_get_ns = time_ns([&] {
                       for (const auto& t : timelines) {
                         if (!s.traces().get(t.task)) std::abort();
                       }
                     }) /
                     n;
  // The shard's recording sequence: default-capacity channels, filled in
  // placement order, so the recorded/dropped mix matches the live run.
  out.record_ns_per_event =
      time_ns([&] {
        for (const auto& stream : streams) {
          obs::RecorderChannel ch(obs::Recorder::kDefaultCapacity);
          for (const Placed& p : stream) record_task_events(ch, timelines[p.timeline], p.cycles);
        }
      }) /
      (6.0 * n);
}

/// One phase on a fresh daemon.
PhaseResult run_phase(const WorkloadSpec& w, const std::deque<Body>& bodies,
                      const Body& probe, bool closed, bool traced,
                      std::uint64_t seed) {
  PhaseResult out;
  Daemon d(w.recorder, probe);
  out.setup_s = d.setup_s;

  const std::size_t ops = bodies.size();
  std::uint64_t accepted = 1;  // the probe
  const std::int64_t t0 = now_ns();
  const auto run = [&](OpLogic& logic) {
    if (closed) {
      const ClosedResult r = d.gen->run_closed(logic, ops, kRetryBackoffNs);
      out.ops_done = r.ops_done;
      out.attempted = ops + r.retries;
      out.failed = r.failed;
    } else {
      out.open = d.gen->run_open(logic, ops, w.open_rate);
      out.ops_done = ops - out.open.failed;
      out.attempted = ops;
      out.failed = out.open.failed;
    }
  };
  if (w.journey) {
    JourneyLogic logic(bodies, closed);
    run(logic);
    accepted += logic.accepted;
    out.polls = logic.polls;
    out.hard_errors = logic.hard_errors;
    // Every first 200 names the task and a core of its shard, unless the
    // task was stolen.
    for (std::size_t op = 0; op < ops; ++op) {
      if (logic.answers[op].empty()) continue;
      const obs::Json j = obs::Json::parse(logic.answers[op]);
      const TaskId id = bodies[op].tasks[0].id;
      const auto core = static_cast<std::size_t>(j.at("core").as_double());
      require(static_cast<TaskId>(j.at("id").as_double()) == id &&
                  (j.at("stolen").as_bool() ||
                   core / kCoresPerShard ==
                       svc::SchedulingService::route(id, kShards)),
              "journey answer for task " + std::to_string(id) + " is wrong");
    }
  } else {
    SubmitLogic logic(bodies, *d.svc, closed);
    run(logic);
    accepted += logic.accepted;
    out.hard_errors = logic.hard_errors;
  }
  // A closed phase lasts until the last accepted task is placed.
  wait_placed(*d.svc, accepted);
  out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.http = d.gen->stats();
  check_phase(d, bodies, probe, accepted, traced, seed, out);
  return out;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double p50_of(const std::vector<double>& v) {
  LatencySet s;
  for (double x : v) s.add(x);
  return s.p50();
}

double tail_of(const std::vector<double>& v) {
  LatencySet s;
  for (double x : v) s.add(x);
  return s.tail();
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags come in pairs");
  return a;
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == args.workload) spec = &w;
  }
  if (spec == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");

  // Inputs from the seed. Half of each round is the open phase, capped
  // at the closed phase's size to bound the daemon's memory.
  const auto open_ops = static_cast<std::size_t>(std::clamp(
      std::round(spec->open_rate * args.seconds / (2.0 * kRounds)), 1.0,
      static_cast<double>(spec->closed_ops)));
  const std::size_t ntasks =
      (spec->closed_ops + open_ops) * spec->tasks_per_body + 4 * kBatchTasks;
  const std::vector<Cycles> cycles = judgegirl_cycles(ntasks, args.seed);
  std::size_t pos = 0;
  const Body probe = make_body({Task{0, cycles[pos++]}}, 0);
  const std::deque<Body> closed_bodies =
      make_bodies(*spec, spec->closed_ops, 1, cycles, pos);
  const std::deque<Body> open_bodies =
      make_bodies(*spec, open_ops, 1 + ntasks, cycles, pos);
  std::printf("perfbench %s seed=%llu: %zu rounds of %zu closed ops and "
              "%zu open ops at %.0f/s\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              kRounds, closed_bodies.size(), open_bodies.size(),
              spec->open_rate);

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto capacity = [&](const PhaseResult& p) {
    const double done = spec->journey ? static_cast<double>(p.ops_done)
                                      : static_cast<double>(p.tasks - 1);
    return done / p.wall_s;
  };
  const auto phase = [&](bool closed, bool traced) {
    PhaseResult p = run_phase(*spec, closed ? closed_bodies : open_bodies,
                              probe, closed, traced, args.seed);
    attempted += p.attempted;
    failed += p.failed;
    return p;
  };

  if (!args.trace) {
    // Rounds of one closed and one open phase; set-up, capacity and cost
    // are medians over rounds, which keeps one slow round (the first pays
    // for cold memory) from moving them. Latencies are taken per window
    // of kWindowOps consecutive operations, and each is the lowest decile
    // over the run's windows: host stalls charge many operations at once
    // and land in most windows of a busy period (README).
    std::vector<double> setups;
    std::vector<double> caps;
    std::vector<double> costs;
    std::vector<double> mids;
    std::vector<double> tails;
    std::size_t failures = 0;

    for (std::size_t r = 0; r < kRounds; ++r) {
      const PhaseResult closed = phase(true, false);
      const PhaseResult open = phase(false, false);
      setups.push_back(closed.setup_s);
      setups.push_back(open.setup_s);
      caps.push_back(capacity(closed));
      costs.push_back(closed.cost_per_task);
      const LatencySet lat = open.open.latencies();
      const std::vector<double>& by_op = open.open.latency_us;
      // A phase shorter than one window is one window.
      const std::size_t step = std::min(kWindowOps, by_op.size());
      for (std::size_t w0 = 0; step > 0 && w0 + step <= by_op.size(); w0 += step) {
        LatencySet win;
        for (std::size_t i = w0; i < w0 + step; ++i) win.add(by_op[i]);
        mids.push_back(win.p50());
        tails.push_back(win.tail());
      }
      failures += lat.failed();
      std::printf("round %zu: capacity %.1f/s, p50 %.1f us, p99 %.1f us\n", r,
                  caps.back(), lat.p50(), lat.percentile(99));
    }
    std::printf("open phases: %zu latency samples per round (%zu failed in "
                "all); %zu windows of %zu, tail = p%d\n",
                open_ops, failures, tails.size(), std::min(kWindowOps, open_ops),
                tail_percentile(std::min(kWindowOps, open_ops)));
    const auto print_spread = [](const char* what, const std::vector<double>& v) {
      std::printf("  window %s over windows: lowest decile %.1f, quartiles "
                  "%.1f %.1f %.1f us\n",
                  what, nearest_rank(v, 0.1), nearest_rank(v, 0.25),
                  nearest_rank(v, 0.5), nearest_rank(v, 0.75));
    };
    print_spread("p50", mids);
    print_spread("tail", tails);
    metrics = {
        {"setup_s", median_of(setups), "s"},
        {"capacity_tasks_per_s", median_of(caps), "1/s"},
        {"latency_p50_us", nearest_rank(mids, 0.1), "us"},
        {"latency_p99_us", nearest_rank(tails, 0.1), "us"},
        {"cost_per_task", median_of(costs), "money"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Bare and profiled closed phases alternate; the last profiled one
    // and a profiled open phase give the per-layer ledger.
    std::vector<double> bare_caps;
    std::vector<double> traced_caps;
    std::map<obs::prof::Stage, double> by_stage;
    double nsamples = 0.0;
    const auto profiled = [&](bool closed) {
      obs::Registry prof_registry;
      obs::prof::CpuProfiler prof(obs::prof::CpuProfiler::Options{
          .hz = 100, .registry = &prof_registry});
      prof.start();
      PhaseResult p = phase(closed, closed);
      prof.stop();
      for (const auto& s : prof.all_samples()) by_stage[s.stage] += 1.0;
      nsamples += static_cast<double>(prof.all_samples().size());
      return p;
    };
    PhaseResult bare;
    PhaseResult closed;
    for (std::size_t r = 0; r < kTracedRounds; ++r) {
      bare = phase(true, false);
      bare_caps.push_back(capacity(bare));
      closed = profiled(true);
      traced_caps.push_back(capacity(closed));
    }
    const PhaseResult open = profiled(false);
    const auto share = [&](obs::prof::Stage st) {
      return 100.0 * by_stage[st] / std::max(1.0, nsamples);
    };
    using obs::prof::Stage;
    const double other = share(Stage::kSteal) + share(Stage::kExec) +
                         share(Stage::kNone);

    const double tasks = static_cast<double>(closed.tasks - 1);
    const double cap_bare = median_of(bare_caps);
    // Shard-side time per task when the shards set the pace; the layers
    // below should add up to it, the rest is code no layer timing covers.
    const double shard_ns = static_cast<double>(kShards) * 1e9 / cap_bare;
    const double layers_ns = closed.lmc_ns_per_task + closed.append_ns_per_task +
                             closed.record_ns_per_event * closed.events_per_task;
    const double rec_total = static_cast<double>(closed.rec_recorded + closed.rec_dropped);
    metrics = {
        {"http.connect_us.p50", p50_of(open.http.connect_us), "us"},
        {"http.request_us.p50", p50_of(open.http.request_us), "us"},
        {"http.request_us.p99", tail_of(open.http.request_us), "us"},
        {"http.requests_per_task", static_cast<double>(closed.http.exchanges) / tasks, "ratio"},
        {"http.bytes_per_task", static_cast<double>(closed.http.bytes) / tasks, "B"},
        {"http.status_503",
         static_cast<double>(closed.http.status_503 + open.http.status_503), "count"},
        {"json.decode_ns_per_task", closed.json_ns_per_task, "ns"},
        {"svc.reject_ratio",
         static_cast<double>(closed.submits_rejected) /
             static_cast<double>(std::max<std::uint64_t>(1, closed.submits_attempted)),
         "ratio"},
        {"svc.ring_wait_us.p50", closed.ring_wait_us_p50, "us"},
        {"svc.drain_batch_mean", closed.drain_batch_mean, "count"},
        {"svc.stolen", static_cast<double>(closed.stolen), "count"},
        {"lmc.place_ns_per_task", closed.lmc_ns_per_task, "ns"},
        {"reqtrace.append_ns_per_task", closed.append_ns_per_task, "ns"},
        {"svc.status_read_ns", closed.status_read_ns, "ns"},
        {"reqtrace.get_ns", closed.trace_get_ns, "ns"},
        {"http.polls_per_placement",
         spec->journey ? static_cast<double>(closed.polls) /
                             static_cast<double>(std::max<std::uint64_t>(1, closed.ops_done))
                       : 0.0,
         "ratio"},
        {"recorder.record_ns_per_event", closed.record_ns_per_event, "ns"},
        {"recorder.drop_ratio", rec_total > 0 ? static_cast<double>(closed.rec_dropped) / rec_total : 0.0,
         "ratio"},
        {"prof.share.http", share(Stage::kHttp), "%"},
        {"prof.share.drain", share(Stage::kDrain), "%"},
        {"prof.share.placement", share(Stage::kPlacement), "%"},
        {"prof.share.idle", share(Stage::kIdle), "%"},
        {"prof.share.other", other, "%"},
        {"prof.samples", nsamples, "count"},
        {"gen.late_us.p99", tail_of(open.open.late_us), "us"},
        {"trace.overhead_ratio", cap_bare / median_of(traced_caps) - 1.0, "ratio"},
        {"recon.shard_residual_ratio", (shard_ns - layers_ns) / shard_ns, "ratio"},
        {"failed_ratio",
         static_cast<double>(open.failed + bare.hard_errors + closed.hard_errors) /
             static_cast<double>(std::max<std::uint64_t>(1, open.attempted)),
         "ratio"},
    };
  }

  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) {
      throw CheckError(m.name + " is not finite (failed operations in its tail?)");
    }
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed allocator thresholds (glibc's initial values): large blocks are
  // always fresh mappings, so every daemon of the run sets up like the
  // first one in a new process instead of reusing what the last left.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const perfbench::CheckError& e) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
