/// \file ops.h
/// \brief The benchmark's operations on the scheduling daemon's HTTP
///        API: request bodies and the logic that chains exchanges.
#pragma once

#include <charconv>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dvfs/common.h"
#include "dvfs/svc/service.h"
#include "loadgen.h"

namespace perfbench {

using dvfs::Cycles;
using dvfs::core::TaskId;

struct Task {
  TaskId id = 0;
  Cycles cycles = 0;
};

/// One request body with the tasks it carries.
struct Body {
  std::vector<Task> tasks;
  std::string request;  ///< the whole POST, headers and JSON
  std::size_t shard = 0;

  /// The JSON document inside `request`.
  [[nodiscard]] std::string_view json() const {
    return std::string_view(request).substr(request.find("\r\n\r\n") + 4);
  }
};

inline std::string task_json(const Task& t) {
  return "{\"id\":" + std::to_string(t.id) +
         ",\"cycles\":" + std::to_string(t.cycles) + "}";
}

inline Body make_body(std::vector<Task> tasks, std::size_t shard) {
  std::string json;
  if (tasks.size() == 1) {
    json = task_json(tasks.front());
  } else {
    json = "{\"tasks\":[";
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (i > 0) json += ',';
      json += task_json(tasks[i]);
    }
    json += "]}";
  }
  return Body{std::move(tasks), http_request("POST", "/submit", json), shard};
}

inline std::optional<std::uint64_t> json_u64(const std::string& body,
                                      const std::string& key) {
  const auto at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nullopt;
  const char* p = body.data() + at + key.size() + 3;
  std::uint64_t v = 0;
  if (std::from_chars(p, body.data() + body.size(), v).ec != std::errc{}) {
    return std::nullopt;
  }
  return v;
}

/// POST /submit of one body per operation. Milestone: the 202.
class SubmitLogic final : public OpLogic {
 public:
  SubmitLogic(const std::deque<Body>& bodies,
              const dvfs::svc::SchedulingService& s, bool closed)
      : bodies_(bodies), svc_(s), closed_(closed) {}

  const std::string& first(std::size_t op) override { return body(op).request; }

  Verdict on_response(std::size_t op, const Response& r) override {
    if (r.status == 503) {
      return {closed_ ? Verdict::Kind::kRetry : Verdict::Kind::kFail};
    }
    const auto acc = json_u64(r.body, "accepted");
    const auto rej = json_u64(r.body, "rejected");
    if (r.status != 202 || !acc || !rej ||
        *acc + *rej != body(op).tasks.size()) {
      ++hard_errors;
      return {Verdict::Kind::kFail};
    }
    accepted += *acc;
    if (*rej > 0 && closed_) partials_.push_back({op, *acc});
    return {Verdict::Kind::kDone, nullptr, true};
  }

  /// A body accepted in part names only how many of its tasks got in.
  /// Once that many have a status (a task gets one when first placed),
  /// the others were refused and go out again in a new body.
  void take_new_ops(std::vector<std::size_t>& out) override {
    if (partials_.empty()) return;
    const std::int64_t now = now_ns();
    if (now - last_check_ns_ < kPartialCheckNs) return;
    last_check_ns_ = now;
    for (auto it = partials_.begin(); it != partials_.end();) {
      std::vector<Task> refused;
      for (const Task& t : body(it->op).tasks) {
        if (!svc_.status(t.id)) refused.push_back(t);
      }
      if (body(it->op).tasks.size() - refused.size() < it->accepted) {
        ++it;  // some accepted tasks are still in the ring
        continue;
      }
      resubmits_.push_back(make_body(std::move(refused), body(it->op).shard));
      out.push_back(bodies_.size() + resubmits_.size() - 1);
      it = partials_.erase(it);
    }
  }
  bool pending() override { return !partials_.empty(); }

  std::uint64_t accepted = 0;
  std::uint64_t hard_errors = 0;

 private:
  static constexpr std::int64_t kPartialCheckNs = 200'000;
  struct Partial {
    std::size_t op;
    std::uint64_t accepted;
  };
  /// Operations past the workload's own bodies are resubmissions.
  [[nodiscard]] const Body& body(std::size_t op) const {
    return op < bodies_.size() ? bodies_[op] : resubmits_[op - bodies_.size()];
  }

  const std::deque<Body>& bodies_;
  std::deque<Body> resubmits_;  // deque: slots hold pointers into it
  const dvfs::svc::SchedulingService& svc_;
  bool closed_;
  std::vector<Partial> partials_;
  std::int64_t last_check_ns_ = 0;
};

/// POST one task, poll GET /schedule/{id} until 200 (the milestone),
/// then GET /tasks/{id}/trace.
class JourneyLogic final : public OpLogic {
 public:
  JourneyLogic(const std::deque<Body>& bodies, bool closed)
      : answers(bodies.size()), bodies_(bodies), closed_(closed),
        stage_(bodies.size(), 0) {
    for (const Body& b : bodies_) {
      schedule_.push_back(
          http_request("GET", "/schedule/" + std::to_string(b.tasks[0].id)));
      trace_.push_back(http_request(
          "GET", "/tasks/" + std::to_string(b.tasks[0].id) + "/trace"));
    }
  }

  const std::string& first(std::size_t op) override {
    stage_[op] = 0;
    return bodies_[op].request;
  }

  Verdict on_response(std::size_t op, const Response& r) override {
    switch (stage_[op]) {
      case 0:
        if (r.status == 202) {
          ++accepted;
          stage_[op] = 1;
          ++polls;
          return {Verdict::Kind::kNext, &schedule_[op]};
        }
        if (r.status == 503) {
          return {closed_ ? Verdict::Kind::kRetry : Verdict::Kind::kFail};
        }
        break;
      case 1:
        if (r.status == 404) {  // not placed yet
          ++polls;
          return {Verdict::Kind::kNext, &schedule_[op]};
        }
        if (r.status == 200) {
          answers[op] = r.body;
          stage_[op] = 2;
          return {Verdict::Kind::kNext, &trace_[op], true};
        }
        break;
      default:
        // The status store is written just before the trace store, so a
        // trace read right after the first 200 may still miss.
        if (r.status == 404) return {Verdict::Kind::kNext, &trace_[op]};
        if (r.status == 200) return {Verdict::Kind::kDone};
        break;
    }
    ++hard_errors;
    return {Verdict::Kind::kFail};
  }

  std::uint64_t accepted = 0;
  std::uint64_t polls = 0;
  std::uint64_t hard_errors = 0;
  /// Each journey's first GET /schedule 200 body, checked after the run.
  std::vector<std::string> answers;

 private:
  const std::deque<Body>& bodies_;
  bool closed_;
  std::vector<std::uint8_t> stage_;
  std::vector<std::string> schedule_;
  std::vector<std::string> trace_;
};

}  // namespace perfbench
