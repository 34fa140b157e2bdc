#include "reference.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kNodes = 1u << 17;  // x 64 B = 8 MiB
constexpr std::uint32_t kPending = 4096;
constexpr std::uint64_t kEvents = 1'000'000;

struct Node {
  std::uint64_t count, sum, mix, odd, even, pad[3];
};

using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, node)

}  // namespace

double reference_rate() {
  static std::vector<Node> nodes(kNodes);
  static std::vector<Event> heap;
  heap.reserve(kPending);

  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    nodes[i] = {i, 3ull * i, 0, 0, 0, {}};
  }
  heap.clear();
  const auto later = std::greater<Event>();
  for (std::uint32_t i = 0; i < kPending; ++i) {
    heap.emplace_back(next() % 64, static_cast<std::uint32_t>(next() % kNodes));
    std::push_heap(heap.begin(), heap.end(), later);
  }

  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event e = heap.back();
    heap.pop_back();
    Node& node = nodes[e.second];
    const auto peer = static_cast<std::uint32_t>(
        (node.count * 2654435761u + next()) % kNodes);
    Node& other = nodes[peer];
    node.sum += other.count + e.first;
    other.mix ^= node.sum;
    ++node.count;
    if (node.sum & 1) {
      node.odd += other.sum;
    } else {
      ++node.even;
    }
    heap.emplace_back(e.first + 1 + (next() & 15), peer);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const double seconds = seconds_since(start);

  // Fold the state into a value the compiler must keep.
  std::uint64_t fold = 0;
  for (const Node& node : nodes) fold += node.sum ^ node.mix;
  static volatile std::uint64_t sink;
  sink = fold;
  return static_cast<double>(kEvents) / seconds;
}

}  // namespace perfbench
