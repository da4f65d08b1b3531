// Candidate selection shared by every search path: a bounded max-heap for
// the k smallest (distance, id) pairs of a stream (brute force, index
// probing, graph construction), the heap-free Shortlist that picks the same
// pairs for an ADC rerank budget, and the dedupe of gathered candidate ids.
#ifndef USP_KNN_TOP_K_H_
#define USP_KNN_TOP_K_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace usp {

/// One scored neighbor candidate.
struct Neighbor {
  float distance;
  uint32_t id;

  bool operator<(const Neighbor& other) const {
    if (distance != other.distance) return distance < other.distance;
    return id < other.id;  // deterministic ordering under ties
  }
};

/// Keeps the k smallest-distance neighbors seen so far. Push is O(log k).
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) { heap_.reserve(k + 1); }

  /// Offers a candidate; kept only if among the current k best.
  void Push(float distance, uint32_t id) {
    if (heap_.size() < k_) {
      heap_.push_back({distance, id});
      std::push_heap(heap_.begin(), heap_.end());
    } else if (k_ > 0 && Neighbor{distance, id} < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = {distance, id};
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  size_t size() const { return heap_.size(); }

  /// Extracts results sorted by ascending distance; the heap is consumed.
  std::vector<Neighbor> TakeSorted() {
    std::sort_heap(heap_.begin(), heap_.end());
    return std::move(heap_);
  }

 private:
  size_t k_;
  std::vector<Neighbor> heap_;  // max-heap on (distance, id)
};

/// Selects the `keep` smallest pairs of a stream under Neighbor::operator<
/// without keeping them ordered: exactly the set a TopK(keep) fed the same
/// stream of distinct ids keeps, for the rerank budget of the ADC indexes,
/// whose rerank sorts the ids anyway. Pairs append to a buffer of
/// max(4 * keep, 64) slots; a full buffer is cut down to its `keep` best by
/// one nth_element, and from the first cut on a pair that does not beat the
/// kept worst is dropped without a write. Each cut frees three quarters of
/// the buffer, so the cuts cost O(1) per buffered pair, and memory stays
/// O(min(keep, stream length)) however long the stream is.
class Shortlist {
 public:
  explicit Shortlist(size_t keep)
      : keep_(keep),
        // Saturates rather than wraps for a keep near SIZE_MAX (a caller's
        // "keep everything", or a rerank budget read from disk): that buffer
        // is never cut.
        capacity_(keep > std::numeric_limits<size_t>::max() / 4
                      ? std::numeric_limits<size_t>::max()
                      : std::max<size_t>(4 * keep, 64)) {
    // A large keep may see a far shorter stream: grow past this on demand.
    pairs_.reserve(std::min<size_t>(capacity_, 4096));
  }

  /// Offers a candidate.
  void Push(float distance, uint32_t id) {
    const Neighbor pair{distance, id};
    if (cut_ && !(pair < worst_)) return;
    pairs_.push_back(pair);
    if (pairs_.size() == capacity_) Cut();
  }

  /// The kept pairs in no particular order; the selector is consumed.
  std::vector<Neighbor> Take() {
    if (pairs_.size() > keep_) Cut();
    return std::move(pairs_);
  }

 private:
  // Keeps the `keep_` best pairs and remembers the worst of them.
  void Cut() {
    if (keep_ == 0) {
      pairs_.clear();
      return;
    }
    std::nth_element(pairs_.begin(), pairs_.begin() + (keep_ - 1),
                     pairs_.end());
    pairs_.resize(keep_);
    worst_ = pairs_.back();
    cut_ = true;
  }

  size_t keep_;
  size_t capacity_;
  bool cut_ = false;
  Neighbor worst_{0.0f, 0};  // valid once cut_
  std::vector<Neighbor> pairs_;
};

/// Sorts `ids` ascending and drops repeats, in place. A list that is already
/// strictly increasing (the ids of one probed bucket) passes one O(n) check
/// and is left as it is.
inline void SortUniqueIds(std::vector<uint32_t>* ids) {
  if (std::adjacent_find(ids->begin(), ids->end(),
                         std::greater_equal<uint32_t>()) == ids->end()) {
    return;
  }
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace usp

#endif  // USP_KNN_TOP_K_H_
