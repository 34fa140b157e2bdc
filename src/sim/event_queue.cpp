#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace klex::sim {

// ---------------------------------------------------------------------------
// EventHeap
// ---------------------------------------------------------------------------

void EventHeap::push(const Event& event) {
  // Hole-based sift-up: bubble the hole to the insertion point, one copy
  // per level (a std::push_heap-style swap chain does ~3x the stores).
  std::size_t hole = heap_.size();
  heap_.resize(hole + 1);
  while (hole > 0) {
    std::size_t parent = (hole - 1) / 2;
    if (!event.before(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = event;
}

void EventHeap::pop() {
  KLEX_CHECK(!heap_.empty(), "pop on an empty event heap");
  std::size_t last = heap_.size() - 1;
  if (last == 0) {
    heap_.clear();
    return;
  }
  // Move the last element's value down from the root hole.
  const Event moved = heap_[last];
  heap_.pop_back();
  std::size_t hole = 0;
  std::size_t half = last / 2;  // first index without children
  while (hole < half) {
    std::size_t child = 2 * hole + 1;
    if (child + 1 < last && heap_[child + 1].before(heap_[child])) {
      ++child;
    }
    if (!heap_[child].before(moved)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = moved;
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

EventQueue::EventQueue(SchedulerKind scheduler)
    : scheduler_(scheduler), buckets_(kBucketCount) {}

void EventQueue::set_log_bucket_count(std::uint32_t log2) {
  KLEX_REQUIRE(size_ == 0, "the ring window can only move while empty");
  KLEX_REQUIRE(log2 <= kMaxLogBucketCount, "ring window beyond bitmap cap");
  if (log2 < kLogBucketCount) log2 = kLogBucketCount;  // grow-only
  bucket_count_ = std::size_t{1} << log2;
  mask_ = bucket_count_ - 1;
  group_count_ = bucket_count_ / 64;
  buckets_.assign(bucket_count_, Bucket{});
  bits_.fill(0);
  summary_ = 0;
  cached_min_bucket_ = -1;
  window_end_ = now_ + bucket_count_;
}

void EventQueue::maybe_sort(Bucket& bucket) const {
  if (!bucket.unsorted) return;
  // One tick per bucket position, so every event here shares `at` and
  // seq alone restores the total order.
  std::sort(bucket.events.begin() + bucket.head, bucket.events.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  bucket.unsorted = false;
  ++counters_.bucket_sorts;
  counters_.sorted_events += bucket.events.size() - bucket.head;
}

std::size_t EventQueue::scan_from(std::size_t from) const {
  ++counters_.bucket_scans;
  // Word containing `from`, bits at and after it.
  std::size_t group = from >> 6;
  std::uint64_t word = bits_[group] & (~std::uint64_t{0} << (from & 63));
  if (word != 0) {
    return (group << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }
  // Groups strictly after `group`, then wrap to 0..group. Within the
  // wrapped range the low bits of bits_[group] need no masking: its high
  // bits were just probed and found clear.
  std::uint64_t after =
      group + 1 < group_count_ ? summary_ & (~std::uint64_t{0} << (group + 1))
                               : 0;
  std::uint64_t candidates = after != 0 ? after : summary_;
  KLEX_CHECK(candidates != 0, "bitmap scan over an empty calendar ring");
  std::size_t g = static_cast<std::size_t>(std::countr_zero(candidates));
  return (g << 6) + static_cast<std::size_t>(std::countr_zero(bits_[g]));
}

std::size_t EventQueue::min_bucket() const {
  if (cached_min_bucket_ < 0) {
    std::size_t index = scan_from(tick_position(now_));
    cached_min_bucket_ = static_cast<std::int64_t>(index);
    cached_min_tick_ = tick_of(index);
  }
  return static_cast<std::size_t>(cached_min_bucket_);
}

const Event& EventQueue::ring_top() const {
  Bucket& bucket = buckets_[min_bucket()];
  maybe_sort(bucket);
  return bucket.events[bucket.head];
}

void EventQueue::ring_pop() {
  Bucket& bucket = buckets_[min_bucket()];
  maybe_sort(bucket);
  if (++bucket.head == bucket.events.size()) {
    std::size_t index = static_cast<std::size_t>(cached_min_bucket_);
    // The drained storage goes to the spare pool, capacity intact: the
    // next bucket to fill reuses it (steady state reallocates nothing),
    // and only as many buffers exist as buckets are ever non-empty at
    // once, not one per ring position.
    bucket.events.clear();
    spare_.emplace_back();
    spare_.back().swap(bucket.events);
    bucket.head = 0;
    std::uint64_t& word = bits_[index >> 6];
    word &= ~(std::uint64_t{1} << (index & 63));
    if (word == 0) summary_ &= ~(std::uint64_t{1} << (index >> 6));
    cached_min_bucket_ = -1;
  }
  --ring_count_;
}

const Event& EventQueue::top() const {
  KLEX_CHECK(size_ > 0, "top on an empty event queue");
  if (ring_count_ == 0) return overflow_.top();
  if (overflow_.empty()) return ring_top();
  const Event& heap_min = overflow_.top();
  const Event& ring_min = ring_top();
  return heap_min.before(ring_min) ? heap_min : ring_min;
}

SimTime EventQueue::top_time() const {
  if (size_ == 0) return kTimeInfinity;
  if (ring_count_ == 0) return overflow_.top().at;
  min_bucket();
  if (overflow_.empty() || cached_min_tick_ <= overflow_.top().at) {
    return cached_min_tick_;
  }
  return overflow_.top().at;
}

bool EventQueue::pop_min_until(SimTime t, Event* out) {
  if (size_ == 0) return false;
  if (ring_count_ > 0) {
    const Event& ring_min = ring_top();
    if (overflow_.empty() || ring_min.before(overflow_.top())) {
      if (ring_min.at > t) return false;
      *out = ring_min;
      --size_;
      ring_pop();
      return true;
    }
  }
  const Event& heap_min = overflow_.top();
  if (heap_min.at > t) return false;
  *out = heap_min;
  --size_;
  overflow_.pop();
  ++counters_.overflow_pops;
  return true;
}

void EventQueue::pop() {
  KLEX_CHECK(size_ > 0, "pop on an empty event queue");
  --size_;
  if (ring_count_ > 0 &&
      (overflow_.empty() || ring_top().before(overflow_.top()))) {
    ring_pop();
    return;
  }
  overflow_.pop();
  ++counters_.overflow_pops;
}

void EventQueue::push(const Event& event) {
  KLEX_CHECK(event.at >= now_, "event scheduled in the past");
  if (size_ >= max_size_) max_size_ = size_ + 1;
  // Route: heap in kBinaryHeap mode, while the queue is sparse (a tiny
  // heap outruns ring bucket traffic), or beyond the ring window;
  // calendar ring otherwise. pop() merges the two by (at, seq), so the
  // policy affects only speed, never order.
  if (scheduler_ == SchedulerKind::kBinaryHeap ||
      size_ < kSparseThreshold || event.at >= window_end_) {
    ++size_;
    overflow_.push(event);
    ++counters_.overflow_pushes;
    return;
  }
  ++size_;
  std::size_t index = tick_position(event.at);
  Bucket& bucket = buckets_[index];
  if (bucket.events.empty()) {
    bits_[index >> 6] |= std::uint64_t{1} << (index & 63);
    summary_ |= std::uint64_t{1} << (index >> 6);
    if (!spare_.empty()) {
      bucket.events.swap(spare_.back());  // most recently drained: warm
      spare_.pop_back();
    }
  } else if (event.seq < bucket.events.back().seq) {
    bucket.unsorted = true;  // cross-lane barrier merge; sorted lazily
  }
  bucket.events.push_back(event);
  ++ring_count_;
  ++counters_.bucket_inserts;
  if (cached_min_bucket_ >= 0 && event.at < cached_min_tick_) {
    cached_min_bucket_ = static_cast<std::int64_t>(index);
    cached_min_tick_ = event.at;
  }
}

}  // namespace klex::sim
