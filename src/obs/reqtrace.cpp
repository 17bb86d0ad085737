#include "dvfs/obs/reqtrace.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "dvfs/common.h"

namespace dvfs::obs::reqtrace {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kSubmitRecv: return "submit_recv";
    case Stage::kStealHop: return "steal_hop";
    case Stage::kRingEnqueue: return "ring_enqueue";
    case Stage::kRingDequeue: return "ring_dequeue";
    case Stage::kPlacement: return "placement";
    case Stage::kShardQueue: return "shard_queue";
    case Stage::kExecBegin: return "exec_begin";
    case Stage::kExecEnd: return "exec_end";
  }
  return "?";
}

void sort_steps(std::vector<Step>& steps) {
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& x, const Step& y) {
                     if (x.t_s != y.t_s) return x.t_s < y.t_s;
                     return static_cast<std::uint8_t>(x.stage) <
                            static_cast<std::uint8_t>(y.stage);
                   });
}

std::size_t Timeline::hops() const {
  std::size_t n = 0;
  for (const Step& s : steps) n += s.stage == Stage::kStealHop ? 1 : 0;
  return n;
}

double Timeline::begin_s() const {
  return steps.empty() ? 0.0 : steps.front().t_s;
}

double Timeline::end_s() const {
  return steps.empty() ? 0.0 : steps.back().t_s;
}

Durations Timeline::durations() const {
  Durations d;
  for (std::size_t i = 1; i < steps.size(); ++i) {
    const double dt = steps[i].t_s - steps[i - 1].t_s;
    // Attribute the gap to the stage that closed it; every gap lands in
    // exactly one field, so the fields telescope to end-to-end.
    switch (steps[i].stage) {
      case Stage::kSubmitRecv: break;  // only ever the first step
      case Stage::kStealHop: d.steal_wait_s += dt; break;
      case Stage::kRingEnqueue: d.ingress_s += dt; break;
      case Stage::kRingDequeue: d.ring_wait_s += dt; break;
      case Stage::kPlacement: d.placement_s += dt; break;
      case Stage::kShardQueue: d.placement_s += dt; break;
      case Stage::kExecBegin: d.queue_wait_s += dt; break;
      case Stage::kExecEnd: d.exec_s += dt; break;
    }
  }
  return d;
}

const char* Timeline::admission_critical_stage() const {
  const Durations d = durations();
  const char* name = "ingress";
  double best = d.ingress_s;
  if (d.ring_wait_s > best) { best = d.ring_wait_s; name = "ring_wait"; }
  if (d.placement_s > best) { best = d.placement_s; name = "placement"; }
  if (d.steal_wait_s > best) { name = "steal_wait"; }
  return name;
}

std::vector<Timeline> build_timelines(const std::vector<dfr::Event>& events) {
  using dfr::EventType;
  // Pass 1: which tasks are traced at all. A task qualifies once any v4
  // span event mentions it — a pre-v4 (simulator) stream qualifies none,
  // so its kPlacement events never become bogus one-step timelines.
  std::unordered_map<std::uint64_t, Timeline> by_task;
  for (const dfr::Event& e : events) {
    const auto t = static_cast<EventType>(e.type);
    if (t < EventType::kSubmitRecv || t > EventType::kExecEnd) continue;
    Timeline& tl = by_task[e.task];
    tl.task = e.task;
    // kShardQueue reuses u0 for queue depth; every other span event
    // carries the trace id there.
    if (tl.trace_id == 0 && t != EventType::kShardQueue) tl.trace_id = e.u0;
  }

  // Pass 2: collect steps (including the pre-existing kPlacement events,
  // which double as the decision record and the trace's placement step).
  for (const dfr::Event& e : events) {
    const auto it = by_task.find(e.task);
    if (it == by_task.end()) continue;
    Step s;
    s.t_s = e.time_s;
    switch (static_cast<EventType>(e.type)) {
      case EventType::kSubmitRecv:
        s.stage = Stage::kSubmitRecv;
        break;
      case EventType::kRingEnqueue:
        s.stage = Stage::kRingEnqueue;
        s.a = e.core;
        break;
      case EventType::kRingDequeue:
        s.stage = Stage::kRingDequeue;
        s.a = e.core;
        break;
      case EventType::kStealHop:
        s.stage = Stage::kStealHop;
        s.a = e.aux;
        s.b = e.core;
        break;
      case EventType::kPlacement:
        s.stage = Stage::kPlacement;
        s.a = e.core;
        s.b = e.rate_idx;
        break;
      case EventType::kShardQueue:
        s.stage = Stage::kShardQueue;
        s.a = e.core;
        s.b = static_cast<std::uint32_t>(e.u0);
        break;
      case EventType::kExecBegin:
        s.stage = Stage::kExecBegin;
        s.a = e.core;
        break;
      case EventType::kExecEnd:
        s.stage = Stage::kExecEnd;
        s.a = e.core;
        break;
      default:
        continue;
    }
    it->second.steps.push_back(s);
  }

  std::vector<Timeline> out;
  out.reserve(by_task.size());
  for (auto& [id, tl] : by_task) {
    sort_steps(tl.steps);
    out.push_back(std::move(tl));
  }
  std::sort(out.begin(), out.end(),
            [](const Timeline& x, const Timeline& y) { return x.task < y.task; });
  return out;
}

Json timeline_json(const Timeline& t) {
  Json::Array steps;
  for (std::size_t i = 0; i < t.steps.size(); ++i) {
    const Step& s = t.steps[i];
    Json::Object o{{"stage", Json(to_string(s.stage))},
                   {"t_s", Json(s.t_s)},
                   {"dt_s", Json(i == 0 ? 0.0 : s.t_s - t.steps[i - 1].t_s)}};
    switch (s.stage) {
      case Stage::kRingEnqueue:
      case Stage::kRingDequeue:
        o.emplace("shard", Json(static_cast<std::uint64_t>(s.a)));
        break;
      case Stage::kStealHop:
        o.emplace("from_shard", Json(static_cast<std::uint64_t>(s.a)));
        o.emplace("to_shard", Json(static_cast<std::uint64_t>(s.b)));
        break;
      case Stage::kPlacement:
        o.emplace("core", Json(static_cast<std::uint64_t>(s.a)));
        o.emplace("rate_idx", Json(static_cast<std::uint64_t>(s.b)));
        break;
      case Stage::kShardQueue:
        o.emplace("core", Json(static_cast<std::uint64_t>(s.a)));
        o.emplace("depth", Json(static_cast<std::uint64_t>(s.b)));
        break;
      case Stage::kExecBegin:
      case Stage::kExecEnd:
        o.emplace("core", Json(static_cast<std::uint64_t>(s.a)));
        break;
      case Stage::kSubmitRecv:
        break;
    }
    steps.emplace_back(std::move(o));
  }

  const Durations d = t.durations();
  return Json(Json::Object{
      {"task", Json(t.task)},
      {"trace_id", Json(trace_id_hex(t.trace_id))},
      {"stolen", Json(t.stolen())},
      {"hops", Json(static_cast<std::uint64_t>(t.hops()))},
      {"begin_s", Json(t.begin_s())},
      {"end_s", Json(t.end_s())},
      {"end_to_end_s", Json(t.end_to_end_s())},
      {"critical_stage", Json(t.admission_critical_stage())},
      {"durations",
       Json(Json::Object{{"ingress_s", Json(d.ingress_s)},
                         {"ring_wait_s", Json(d.ring_wait_s)},
                         {"placement_s", Json(d.placement_s)},
                         {"steal_wait_s", Json(d.steal_wait_s)},
                         {"queue_wait_s", Json(d.queue_wait_s)},
                         {"exec_s", Json(d.exec_s)},
                         {"total_s", Json(d.total())}})},
      {"steps", Json(std::move(steps))}});
}

std::string trace_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

std::optional<std::uint64_t> parse_trace_id(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X")) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v, 16);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return v;
}

namespace {

/// One task's record: two cache lines, living in a stripe's ring. Slot
/// `i` holds the first step of Stage `i` (kStealHop has none); the slots
/// share their `a` fields pairwise, so a step fits only if it agrees
/// with its partner. Once any step spills, every later one does too, so
/// slots-then-spill is append order for same-stage steps.
struct Record {
  std::uint64_t task;
  std::uint64_t trace_id;
  std::uint64_t cycles;
  double marginal;
  double t[8];              ///< slot timestamps, indexed by Stage
  std::uint32_t shard;      ///< a of kRingEnqueue / kRingDequeue
  std::uint32_t core;       ///< a of kPlacement / kShardQueue
  std::uint32_t rate_idx;   ///< b of kPlacement
  std::uint32_t depth;      ///< b of kShardQueue
  std::uint32_t exec_core;  ///< a of kExecBegin / kExecEnd
  std::uint8_t present;     ///< bit i: slot i holds a step
  std::vector<Step>* spill;  ///< out-of-line steps; null until needed
};
static_assert(sizeof(Record) == 128);
static_assert(std::is_trivially_copyable_v<Record>);

constexpr std::uint8_t bit(Stage s) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(s));
}

/// Where slot `i` keeps a step's `a`/`b` (nullptr: must be 0), and which
/// slots share its `a` field.
struct SlotFields {
  std::uint32_t Record::*a;
  std::uint32_t Record::*b;
  std::uint8_t shares_a;
};
constexpr std::uint8_t kShardPair =
    bit(Stage::kRingEnqueue) | bit(Stage::kRingDequeue);
constexpr std::uint8_t kCorePair =
    bit(Stage::kPlacement) | bit(Stage::kShardQueue);
constexpr std::uint8_t kExecPair =
    bit(Stage::kExecBegin) | bit(Stage::kExecEnd);
constexpr SlotFields kSlots[8] = {
    {nullptr, nullptr, 0},                               // kSubmitRecv
    {nullptr, nullptr, 0},                               // kStealHop
    {&Record::shard, nullptr, kShardPair},               // kRingEnqueue
    {&Record::shard, nullptr, kShardPair},               // kRingDequeue
    {&Record::core, &Record::rate_idx, kCorePair},       // kPlacement
    {&Record::core, &Record::depth, kCorePair},          // kShardQueue
    {&Record::exec_core, nullptr, kExecPair},            // kExecBegin
    {&Record::exec_core, nullptr, kExecPair},            // kExecEnd
};

void put(Record& r, const Step& s) {
  const auto i = static_cast<std::size_t>(s.stage);
  const SlotFields& f = kSlots[i];
  const bool fits =
      r.spill == nullptr && s.stage != Stage::kStealHop &&
      (r.present & bit(s.stage)) == 0 &&
      (f.a != nullptr ? (r.present & f.shares_a) == 0 || r.*f.a == s.a
                      : s.a == 0) &&
      (f.b != nullptr || s.b == 0);
  if (!fits) {
    if (r.spill == nullptr) r.spill = new std::vector<Step>();
    r.spill->push_back(s);
    return;
  }
  r.t[i] = s.t_s;
  if (f.a != nullptr) r.*f.a = s.a;
  if (f.b != nullptr) r.*f.b = s.b;
  r.present |= bit(s.stage);
}

Summary summarize(const Record& r) {
  Summary s;
  s.trace_id = r.trace_id;
  s.cycles = r.cycles;
  s.marginal = r.marginal;
  if ((r.present & bit(Stage::kRingDequeue)) != 0) s.shard = r.shard;
  if ((r.present & bit(Stage::kPlacement)) != 0) {
    s.core = r.core;
    s.rate_idx = r.rate_idx;
    s.placed_s = r.t[static_cast<std::size_t>(Stage::kPlacement)];
  }
  s.exec_begun = (r.present & bit(Stage::kExecBegin)) != 0;
  s.exec_ended = (r.present & bit(Stage::kExecEnd)) != 0;
  if (r.spill == nullptr) return s;
  for (const Step& step : *r.spill) {
    switch (step.stage) {
      case Stage::kStealHop: ++s.hops; break;
      case Stage::kRingDequeue: s.shard = step.a; break;
      case Stage::kPlacement:
        s.core = step.a;
        s.rate_idx = step.b;
        s.placed_s = step.t_s;
        break;
      case Stage::kExecBegin: s.exec_begun = true; break;
      case Stage::kExecEnd: s.exec_ended = true; break;
      default: break;
    }
  }
  return s;
}

}  // namespace

/// A FIFO ring of records plus the index that finds them. Index entries
/// are `(hash >> 32) << 32 | (slot + 1)`, 0 = empty; the high half both
/// filters probes and gives an entry's home position without touching
/// its record. The index doubles whenever it would pass half full, so
/// like the ring it grows with the records held, up to twice the ring.
struct alignas(64) TraceStore::Stripe {
  mutable std::mutex mu;
  std::size_t capacity = 0;  ///< ring slots
  std::size_t head = 0;      ///< next slot to write
  std::size_t held = 0;      ///< live records
  unsigned bits = 0;         ///< the index has 2^bits entries
  Record* ring = nullptr;
  std::vector<std::uint64_t> index;

  Stripe() = default;
  Stripe(const Stripe&) = delete;
  Stripe& operator=(const Stripe&) = delete;

  ~Stripe() {
    if (ring == nullptr) return;
    for (std::size_t i = 0; i < held; ++i) delete ring[i].spill;
    munmap(ring, capacity * sizeof(Record));
  }

  void init(std::size_t slots) {
    DVFS_REQUIRE(slots < (std::size_t{1} << 31),
                 "trace store stripe capacity must be below 2^31");
    capacity = slots;
    bits = std::min(10u, static_cast<unsigned>(std::bit_width(2 * slots - 1)));
    index.assign(std::size_t{1} << bits, 0);
    // Anonymous zero-filled pages: nothing is resident until written.
    void* p = mmap(nullptr, capacity * sizeof(Record), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    ring = static_cast<Record*>(p);
  }

  [[nodiscard]] std::size_t home(std::uint64_t tag) const {
    return static_cast<std::size_t>(tag >> (32 - bits));
  }

  /// Re-homes every entry into an index twice the size.
  void grow() {
    const std::vector<std::uint64_t> old = std::exchange(
        index, std::vector<std::uint64_t>(std::size_t{1} << ++bits, 0));
    const std::size_t mask = index.size() - 1;
    for (const std::uint64_t e : old) {
      if (e == 0) continue;
      std::size_t i = home(e >> 32);
      while (index[i] != 0) i = (i + 1) & mask;
      index[i] = e;
    }
  }

  /// Index position of `task`'s entry, or the empty one ending its probe.
  [[nodiscard]] std::size_t probe(std::uint64_t task,
                                  std::uint64_t tag) const {
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = home(tag);; i = (i + 1) & mask) {
      const std::uint64_t e = index[i];
      if (e == 0 ||
          ((e >> 32) == tag && ring[(e & 0xffffffffu) - 1].task == task)) {
        return i;
      }
    }
  }

  [[nodiscard]] Record* find(std::uint64_t task, std::uint64_t tag) const {
    const std::uint64_t e = index[probe(task, tag)];
    return e == 0 ? nullptr : &ring[(e & 0xffffffffu) - 1];
  }

  /// Removes the entry at `pos`, shifting later members of its probe
  /// run back so every remaining entry stays reachable from its home.
  void erase_at(std::size_t pos) {
    const std::size_t mask = index.size() - 1;
    for (std::size_t j = (pos + 1) & mask;; j = (j + 1) & mask) {
      const std::uint64_t e = index[j];
      if (e == 0) break;
      if (((j - home(e >> 32)) & mask) >= ((j - pos) & mask)) {
        index[pos] = e;
        pos = j;
      }
    }
    index[pos] = 0;
  }

  /// A fresh record for `task` in the ring's next slot; sets `evicted`
  /// when that slot held the stripe's oldest record.
  Record& create(std::uint64_t task, std::uint64_t tag, bool& evicted) {
    Record& r = ring[head];
    evicted = held == capacity;
    if (evicted) {
      erase_at(probe(r.task, mix64(r.task) >> 32));
      delete r.spill;
    } else if (2 * ++held > index.size()) {
      grow();  // never past 2 * capacity entries: held <= capacity
    }
    r = Record{};
    r.task = task;
    index[probe(task, tag)] = tag << 32 | (head + 1);
    head = head + 1 == capacity ? 0 : head + 1;
    return r;
  }
};

TraceStore::TraceStore(std::size_t capacity, std::size_t stripes)
    : num_stripes_(std::max<std::size_t>(1, stripes)),
      stripes_(std::make_unique<Stripe[]>(num_stripes_)) {
  const std::size_t per_stripe =
      std::max<std::size_t>(1, capacity / num_stripes_);
  for (std::size_t i = 0; i < num_stripes_; ++i) {
    stripes_[i].init(per_stripe);
  }
}

TraceStore::~TraceStore() = default;

TraceStore::Stripe& TraceStore::stripe_for(std::uint64_t hash) const {
  return stripes_[hash % num_stripes_];
}

TraceStore::Written TraceStore::append(std::uint64_t task,
                                       std::uint64_t trace_id,
                                       std::initializer_list<Step> steps,
                                       std::optional<Cost> cost) {
  const std::uint64_t h = mix64(task);
  Stripe& st = stripe_for(h);
  Written w;
  std::lock_guard lock(st.mu);
  Record* r = st.find(task, h >> 32);
  if (r == nullptr) {
    r = &st.create(task, h >> 32, w.evicted);
    if (w.evicted) evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (trace_id != 0) r->trace_id = trace_id;
  if (cost.has_value()) {
    r->cycles = cost->cycles;
    r->marginal = cost->marginal;
  }
  for (const Step& s : steps) put(*r, s);
  w.trace_id = r->trace_id;
  return w;
}

std::optional<Summary> TraceStore::extend(std::uint64_t task,
                                          std::initializer_list<Step> steps) {
  const std::uint64_t h = mix64(task);
  Stripe& st = stripe_for(h);
  std::lock_guard lock(st.mu);
  Record* r = st.find(task, h >> 32);
  if (r == nullptr) return std::nullopt;
  for (const Step& s : steps) put(*r, s);
  return summarize(*r);
}

std::optional<Timeline> TraceStore::get(std::uint64_t task) const {
  const std::uint64_t h = mix64(task);
  const Stripe& st = stripe_for(h);
  Timeline tl;
  tl.task = task;
  {
    std::lock_guard lock(st.mu);
    const Record* r = st.find(task, h >> 32);
    if (r == nullptr) return std::nullopt;
    tl.trace_id = r->trace_id;
    tl.steps.reserve(static_cast<std::size_t>(std::popcount(r->present)) +
                     (r->spill != nullptr ? r->spill->size() : 0));
    for (std::size_t i = 0; i < 8; ++i) {
      if ((r->present & (1u << i)) == 0) continue;
      const SlotFields& f = kSlots[i];
      tl.steps.push_back(Step{static_cast<Stage>(i), r->t[i],
                              f.a != nullptr ? r->*f.a : 0,
                              f.b != nullptr ? r->*f.b : 0});
    }
    if (r->spill != nullptr) {
      tl.steps.insert(tl.steps.end(), r->spill->begin(), r->spill->end());
    }
  }
  sort_steps(tl.steps);
  return tl;
}

std::optional<Summary> TraceStore::summary(std::uint64_t task) const {
  const std::uint64_t h = mix64(task);
  const Stripe& st = stripe_for(h);
  std::lock_guard lock(st.mu);
  const Record* r = st.find(task, h >> 32);
  if (r == nullptr) return std::nullopt;
  return summarize(*r);
}

void ExemplarSeries::observe(std::uint64_t value, std::uint64_t trace_id,
                             double t_s) noexcept {
  Slot& s = slots_[Histogram::bucket_index(value)];
  // Seqlock write: odd while the fields are in flux. Racing writers can
  // leave interleaved fields (see header) — every field is still a real
  // sample from this bucket.
  s.seq.fetch_add(1, std::memory_order_acq_rel);
  s.trace.store(trace_id, std::memory_order_relaxed);
  s.value.store(value, std::memory_order_relaxed);
  s.t_bits.store(std::bit_cast<std::uint64_t>(t_s),
                 std::memory_order_relaxed);
  s.seq.fetch_add(1, std::memory_order_acq_rel);
}

std::optional<Exemplar> ExemplarSeries::bucket(std::size_t i) const noexcept {
  if (i >= slots_.size()) return std::nullopt;
  const Slot& s = slots_[i];
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 == 0) return std::nullopt;  // never written
    if ((s1 & 1) != 0) continue;       // writer in flight
    // Acquire loads order the seq re-read after them (no fence: TSan).
    Exemplar e;
    e.trace_id = s.trace.load(std::memory_order_acquire);
    e.value = s.value.load(std::memory_order_acquire);
    e.t_s = std::bit_cast<double>(s.t_bits.load(std::memory_order_acquire));
    if (s.seq.load(std::memory_order_relaxed) == s1) return e;
  }
  return std::nullopt;  // writer storm; skip the exemplar this scrape
}

ExemplarSeries& ExemplarStore::series(const std::string& histogram_name) {
  std::lock_guard lock(mu_);
  return series_[histogram_name];
}

const ExemplarSeries* ExemplarStore::find(
    const std::string& histogram_name) const {
  std::lock_guard lock(mu_);
  const auto it = series_.find(histogram_name);
  return it == series_.end() ? nullptr : &it->second;
}

}  // namespace dvfs::obs::reqtrace
