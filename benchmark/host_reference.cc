// Host-speed reference: a fixed miniature packet simulation that shares no
// code with the simulator, so no change outside benchmark/ can move it.
//
// The machines this benchmark runs on are shared: for minutes at a time,
// other tenants can slow every vCPU by 20-50%. run.py times this loop next
// to every timed operation and scales the operation's times by
// (nominal reference time / measured reference time), which cancels that
// common slowdown. See README "Host noise".
//
// The loop has the simulator's profile: a binary-heap event queue, a hash
// map of flows, ring-buffer packet queues and data-dependent branches, over
// a working set of a few MB. It runs kRepetitions short timed repetitions
// and prints the wall seconds of the fastest: many short draws catch the
// host's quiet moments, so the fastest one tracks the host's best speed
// rather than the noise of one draw. (A multi-threaded variant tracked the
// host no better: its copies slow each other down by varying amounts.)
//
// Usage: host_reference
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace {

struct Event {
  uint64_t time;
  uint64_t seq;
  uint32_t kind;
  uint32_t target;
  bool operator>(const Event& o) const { return time != o.time ? time > o.time : seq > o.seq; }
};

struct Packet {
  uint64_t flow;
  uint64_t seq;
  uint32_t bytes;
  uint64_t stamp;
};

struct Flow {
  uint64_t sent = 0;
  uint64_t acked = 0;
  uint64_t bytes = 0;
};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr int kQueues = 256;
constexpr uint32_t kRing = 1024;
constexpr uint64_t kFlows = 50000;
constexpr uint64_t kEvents = 100000;  // per timed repetition
constexpr int kRepetitions = 10;

// The simulation; its state is built and warmed before the timed loop.
class MiniSim {
 public:
  MiniSim() : rings_(kQueues, std::vector<Packet>(kRing)), head_(kQueues), tail_(kQueues) {
    for (uint32_t i = 0; i < 4096; ++i) {
      events_.push({Mix(i) % 100000, seq_++, i % 3, i % kQueues});
    }
    for (uint64_t f = 0; f < kFlows; ++f) flows_[f].bytes = f;
  }

  uint64_t Run() {
    uint64_t rng = 42, acc = 0;
    for (uint64_t n = 0; n < kEvents; ++n) {
      const Event ev = events_.top();
      events_.pop();
      rng = Mix(rng);
      const uint32_t q = ev.target;
      if (ev.kind == 0) {  // arrival: enqueue if the ring has room
        if (tail_[q] - head_[q] < kRing) {
          const uint64_t flow = rng % kFlows;
          rings_[q][tail_[q] % kRing] = {flow, n, 1500, ev.time};
          ++tail_[q];
          flows_[flow].sent += 1;
        }
      } else if (ev.kind == 1) {  // departure: dequeue and account the flow
        if (head_[q] != tail_[q]) {
          const Packet& p = rings_[q][head_[q] % kRing];
          Flow& f = flows_[p.flow];
          f.acked += 1;
          f.bytes += p.bytes;
          acc += ev.time - p.stamp;
          ++head_[q];
        }
      } else {  // timer: touch a random flow
        acc += flows_[rng % kFlows].bytes;
      }
      events_.push({ev.time + 1 + rng % 2000, seq_++, static_cast<uint32_t>(rng >> 40) % 3,
                    static_cast<uint32_t>(rng >> 20) % kQueues});
    }
    return acc;
  }

 private:
  std::vector<std::vector<Packet>> rings_;
  std::vector<uint32_t> head_, tail_;
  std::unordered_map<uint64_t, Flow> flows_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  uint64_t seq_ = 0;
};

}  // namespace

int main() {
  MiniSim sim;
  uint64_t acc = 0;
  double fastest = 1e300;
  for (int i = 0; i < kRepetitions; ++i) {
    const auto start = std::chrono::steady_clock::now();
    acc += sim.Run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    fastest = std::min(fastest, seconds);
  }
  std::printf("%.9f %llu\n", fastest, static_cast<unsigned long long>(acc % 1000));
  return 0;
}
