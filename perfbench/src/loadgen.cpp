#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <deque>
#include <stdexcept>

namespace perfbench {

namespace {

/// An exchange that has not finished after this long is a socket error;
/// the daemon's own receive timeout is 5 s.
constexpr std::int64_t kExchangeTimeoutNs = 30'000'000'000;

timespec to_timespec(std::int64_t ns) {
  if (ns < 0) ns = 0;
  return timespec{static_cast<time_t>(ns / 1'000'000'000),
                  static_cast<long>(ns % 1'000'000'000)};
}

/// Status code of a complete response, or 0 when `raw` is not one (no
/// header end, or fewer body bytes than Content-Length announced).
int parse_response(const std::string& raw, std::string& body) {
  const auto head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.compare(0, 5, "HTTP/") != 0) {
    return 0;
  }
  const auto sp = raw.find(' ');
  int status = 0;
  if (sp == std::string::npos ||
      std::from_chars(raw.data() + sp + 1, raw.data() + head_end, status)
              .ec != std::errc{}) {
    return 0;
  }
  std::size_t length = 0;
  const auto cl = raw.find("Content-Length:");
  if (cl == std::string::npos || cl > head_end) return 0;
  std::size_t pos = cl + 15;
  while (pos < head_end && raw[pos] == ' ') ++pos;
  if (std::from_chars(raw.data() + pos, raw.data() + head_end, length).ec !=
      std::errc{}) {
    return 0;
  }
  if (raw.size() - (head_end + 4) != length) return 0;
  body.assign(raw, head_end + 4, length);
  return status;
}

}  // namespace

std::string http_request(const std::string& method, const std::string& path,
                         const std::string& body) {
  std::string r = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (method == "POST") {
    r += "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n";
  }
  r += "\r\n";
  r += body;
  return r;
}

int tail_percentile(std::size_t n) {
  for (int p = 99; p > 50; --p) {
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (n >= rank + 10) return p;
  }
  return 50;
}

void LatencySet::sort() const {
  if (!sorted_) std::sort(values_.begin(), values_.end());
  sorted_ = true;
}

std::size_t LatencySet::failed() const {
  return static_cast<std::size_t>(
      std::count(values_.begin(), values_.end(), kFailed));
}

double LatencySet::percentile(double p) const {
  if (values_.empty()) return 0.0;
  sort();
  const double exact = p / 100.0 * static_cast<double>(values_.size());
  std::size_t rank = static_cast<std::size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double LatencySet::share_within(double limit_us) const {
  if (values_.empty()) return 0.0;
  const auto ok = std::count_if(values_.begin(), values_.end(),
                                [&](double v) { return v <= limit_us; });
  return static_cast<double>(ok) / static_cast<double>(values_.size());
}

struct LoadGen::Slot {
  enum class State : std::uint8_t { kFree, kConnecting, kSending, kReceiving };
  State state = State::kFree;
  int fd = -1;
  const std::string* request = nullptr;
  std::size_t sent = 0;
  std::string in;
  Response resp;
  bool finished = false;
  // Operation bookkeeping for the runners.
  std::size_t op = 0;
  std::int64_t due_ns = 0;
  std::int64_t freed_ns = 0;
  bool milestone_seen = false;
};

LoadGen::LoadGen(std::uint16_t port, std::size_t slots)
    : port_(port), slots_(std::max<std::size_t>(1, slots)) {}

LoadGen::~LoadGen() {
  for (Slot& s : slots_) {
    if (s.fd >= 0) ::close(s.fd);
  }
}

void LoadGen::begin_exchange(Slot& s, const std::string& request) {
  s.request = &request;
  s.sent = 0;
  s.in.clear();
  s.resp = Response{};
  s.finished = false;
  s.resp.start_ns = now_ns();
  s.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (s.fd < 0) {
    s.state = Slot::State::kConnecting;
    finish(s, -1);
    return;
  }
  const int one = 1;
  ::setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc =
      ::connect(s.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    s.resp.connected_ns = now_ns();
    s.state = Slot::State::kSending;
  } else if (errno == EINPROGRESS) {
    s.state = Slot::State::kConnecting;
  } else {
    s.state = Slot::State::kConnecting;
    finish(s, -1);
  }
}

void LoadGen::finish(Slot& s, int status_override) {
  s.resp.done_ns = now_ns();
  if (status_override == 0 && s.state == Slot::State::kReceiving) {
    s.resp.status = parse_response(s.in, s.resp.body);
  } else {
    s.resp.status = 0;
  }
  s.resp.bytes_out = s.sent;
  s.resp.bytes_in = s.in.size();
  if (s.fd >= 0) ::close(s.fd);
  s.fd = -1;
  s.state = Slot::State::kFree;
  s.finished = true;

  ++stats_.exchanges;
  stats_.bytes += s.resp.bytes_out + s.resp.bytes_in;
  if (s.resp.status == 503) ++stats_.status_503;
  if (s.resp.status == 0) {
    ++stats_.errors;
  } else {
    stats_.connect_us.push_back(
        static_cast<double>(s.resp.connected_ns - s.resp.start_ns) / 1e3);
    stats_.request_us.push_back(
        static_cast<double>(s.resp.done_ns - s.resp.connected_ns) / 1e3);
  }
}

void LoadGen::pump(std::int64_t deadline_ns, std::vector<std::size_t>& done) {
  done.clear();
  // Slots that finished inside begin_exchange (immediate socket errors).
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].finished) {
      slots_[i].finished = false;
      done.push_back(i);
    }
  }
  if (!done.empty()) return;

  pollfd fds[64];
  std::size_t idx[64];
  std::size_t n = 0;
  for (std::size_t i = 0; i < slots_.size() && n < 64; ++i) {
    const Slot& s = slots_[i];
    if (s.state == Slot::State::kFree) continue;
    fds[n] = pollfd{s.fd,
                    static_cast<short>(s.state == Slot::State::kReceiving
                                           ? POLLIN
                                           : POLLOUT),
                    0};
    idx[n++] = i;
  }
  const timespec ts = to_timespec(deadline_ns - now_ns());
  const int ready = ::ppoll(n == 0 ? nullptr : fds, n, &ts, nullptr);
  if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");

  const std::int64_t now = now_ns();
  for (std::size_t k = 0; k < n; ++k) {
    Slot& s = slots_[idx[k]];
    if (fds[k].revents == 0) {
      if (now - s.resp.start_ns > kExchangeTimeoutNs) finish(s, -1);
      if (s.finished) {
        s.finished = false;
        done.push_back(idx[k]);
      }
      continue;
    }
    if (s.state == Slot::State::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(s.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        finish(s, -1);
      } else {
        s.resp.connected_ns = now_ns();
        s.state = Slot::State::kSending;
      }
    }
    if (s.state == Slot::State::kSending) {
      const std::string& r = *s.request;
      const ssize_t w = ::send(s.fd, r.data() + s.sent, r.size() - s.sent,
                               MSG_NOSIGNAL);
      if (w > 0) {
        s.sent += static_cast<std::size_t>(w);
        if (s.sent == r.size()) s.state = Slot::State::kReceiving;
      } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        finish(s, -1);
      }
    } else if (s.state == Slot::State::kReceiving) {
      char buf[8192];
      for (;;) {
        const ssize_t r = ::recv(s.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          s.in.append(buf, static_cast<std::size_t>(r));
          continue;
        }
        if (r == 0) {
          finish(s, 0);
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          // A reset after the whole response arrived still answered.
          std::string body;
          finish(s, parse_response(s.in, body) != 0 ? 0 : -1);
        }
        break;
      }
    }
    if (s.finished) {
      s.finished = false;
      done.push_back(idx[k]);
    }
  }
}

Response LoadGen::exchange(const std::string& request) {
  Slot& s = slots_[0];
  if (s.state != Slot::State::kFree) {
    throw std::logic_error("exchange() needs an idle generator");
  }
  begin_exchange(s, request);
  std::vector<std::size_t> done;
  for (;;) {
    pump(now_ns() + 100'000'000, done);
    if (std::find(done.begin(), done.end(), 0) != done.end()) break;
  }
  return s.resp;
}

ClosedResult LoadGen::run_closed(OpLogic& logic, std::size_t ops,
                                 std::int64_t retry_backoff_ns) {
  struct Queued {
    std::size_t op;
    std::int64_t not_before_ns;
  };
  std::deque<Queued> queue;
  for (std::size_t i = 0; i < ops; ++i) queue.push_back({i, 0});
  ClosedResult out;
  std::vector<std::size_t> done;
  std::vector<std::size_t> fresh;
  for (;;) {
    fresh.clear();
    logic.take_new_ops(fresh);
    for (std::size_t op : fresh) queue.push_back({op, 0});

    std::int64_t now = now_ns();
    std::size_t busy = 0;
    bool free_slot = false;
    for (Slot& s : slots_) {
      if (s.state == Slot::State::kFree && !queue.empty() &&
          queue.front().not_before_ns <= now) {
        s.op = queue.front().op;
        queue.pop_front();
        begin_exchange(s, logic.first(s.op));
      }
      if (s.state != Slot::State::kFree || s.finished) {
        ++busy;
      } else {
        free_slot = true;
      }
    }
    if (busy == 0 && queue.empty()) {
      if (!logic.pending()) break;
      pump(now + 50'000, done);  // waiting on the service, not on sockets
      continue;
    }
    std::int64_t deadline = now + 10'000'000;
    if (free_slot && !queue.empty()) {
      deadline = std::min(deadline, queue.front().not_before_ns);
    }
    if (free_slot && logic.pending()) deadline = std::min(deadline, now + 50'000);
    pump(deadline, done);
    for (std::size_t i : done) {
      Slot& s = slots_[i];
      const Verdict v = logic.on_response(s.op, s.resp);
      switch (v.kind) {
        case Verdict::Kind::kNext:
          begin_exchange(s, *v.next);
          break;
        case Verdict::Kind::kDone:
          ++out.ops_done;
          break;
        case Verdict::Kind::kRetry:
          ++out.retries;
          queue.push_back({s.op, now_ns() + retry_backoff_ns});
          break;
        case Verdict::Kind::kFail:
          ++out.failed;
          break;
      }
    }
  }
  return out;
}

OpenResult LoadGen::run_open(OpLogic& logic, std::size_t ops,
                             double rate_per_s) {
  // Sleep to the due time without the default 50 µs timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  OpenResult out;
  out.latency_us.assign(ops, LatencySet::kFailed);
  out.period_ns = 1e9 / rate_per_s;
  out.first_due_ns = now_ns() + 1'000'000;
  const auto due = [&](std::size_t i) { return out.due_ns(i); };
  for (Slot& s : slots_) s.freed_ns = 0;
  std::size_t next = 0;
  std::vector<std::size_t> done;
  for (;;) {
    std::size_t busy = 0;
    for (;;) {
      // Start every due operation on the free slot that was freed first.
      Slot* pick = nullptr;
      busy = 0;
      for (Slot& s : slots_) {
        if (s.state != Slot::State::kFree || s.finished) {
          ++busy;
        } else if (pick == nullptr || s.freed_ns < pick->freed_ns) {
          pick = &s;
        }
      }
      if (pick == nullptr || next == ops) break;
      const std::int64_t start = now_ns();
      const std::int64_t d = due(next);
      if (d > start) break;
      out.late_us.push_back(
          static_cast<double>(start - std::max(d, pick->freed_ns)) / 1e3);
      pick->op = next;
      pick->due_ns = d;
      pick->milestone_seen = false;
      begin_exchange(*pick, logic.first(next));
      ++next;
    }
    if (next == ops && busy == 0) break;
    std::int64_t deadline = now_ns() + 10'000'000;
    if (next < ops && busy < slots_.size()) {
      deadline = std::min(deadline, due(next));
    }
    pump(deadline, done);
    for (std::size_t i : done) {
      Slot& s = slots_[i];
      const Verdict v = logic.on_response(s.op, s.resp);
      if (v.milestone && !s.milestone_seen) {
        s.milestone_seen = true;
        out.latency_us[s.op] =
            static_cast<double>(s.resp.done_ns - s.due_ns) / 1e3;
      }
      if (v.kind == Verdict::Kind::kNext) {
        begin_exchange(s, *v.next);
        continue;
      }
      if (v.kind != Verdict::Kind::kDone) {
        ++out.failed;
        out.latency_us[s.op] = LatencySet::kFailed;
      }
      s.freed_ns = now_ns();
    }
  }
  return out;
}

}  // namespace perfbench
