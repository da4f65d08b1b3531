// Candidate selection shared by every search path: a bounded max-heap for
// the k smallest (distance, id) pairs of a stream (brute force, index
// probing, graph construction), the heap-free Shortlist that picks the same
// pairs for an ADC rerank budget, and the dedupe and selector pushdown of
// gathered candidate ids.
#ifndef USP_KNN_TOP_K_H_
#define USP_KNN_TOP_K_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "index/id_selector.h"

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

/// Selects the `keep` smallest pairs of a stream under Neighbor::operator<:
/// for a NaN-free stream of distinct ids, exactly the set a TopK(keep) keeps,
/// returned in arrival order. The ADC indexes shortlist their rerank budget
/// with it, and the ids of one probed bucket (or one id-ordered scan) thus
/// reach the rerank already ascending.
///
/// Pairs append to a buffer of max(4 * keep, 64) slots without a branch on
/// the distance: each pair is written, and the end moves past it only when
/// its key — an order-preserving 32-bit key of the distance (-0 folded into
/// +0) above the id — is below the kept worst's. A full buffer is cut
/// to its `keep` best by a radix select on that 64-bit key (ties at the cut
/// are thus broken by id) followed by one stable compaction. Each cut frees
/// three quarters of the buffer, so cuts cost O(1) per buffered pair, and
/// memory stays O(min(keep, stream length)) however long the stream is.
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
    limit_ = std::min<size_t>(capacity_, 4096);
    pairs_.resize(limit_);
  }

  /// Offers a candidate.
  void Push(float distance, uint32_t id) {
    pairs_[size_] = {distance, id};
    size_ += PairKey(distance, id) < worst_;
    if (size_ == limit_) Full();
  }

  /// The kept pairs in arrival order; the selector is consumed.
  std::vector<Neighbor> Take() {
    if (size_ > keep_) Cut();
    pairs_.resize(size_);
    return std::move(pairs_);
  }

 private:
  // Order-preserving 32-bit key of a distance: for NaN-free a and b,
  // DistanceKey(a) < DistanceKey(b) exactly when a < b. Adding +0 folds -0
  // into +0, so the two zeros share one key, as they compare equal; a
  // negative distance (negated inner products) flips every bit, a
  // non-negative one only its sign bit.
  static uint32_t DistanceKey(float distance) {
    const float folded = distance + 0.0f;
    uint32_t bits;
    std::memcpy(&bits, &folded, sizeof(bits));
    return bits ^ ((0u - (bits >> 31)) | 0x80000000u);
  }

  // The pair order of Neighbor::operator< (for NaN-free distances) as one
  // unsigned comparison.
  static uint64_t PairKey(float distance, uint32_t id) {
    return uint64_t{DistanceKey(distance)} << 32 | id;
  }

  // A full buffer is cut; one that is only full up to its allocation grows.
  void Full() {
    if (size_ == capacity_) {
      Cut();
    } else {
      limit_ = std::min(capacity_, 2 * size_);
      pairs_.resize(limit_);
    }
  }

  // Keeps the `keep_` best pairs, in arrival order, and remembers the worst
  // of them.
  void Cut() {
    if (keep_ == 0) {
      size_ = 0;
      worst_ = 0;  // nothing beats it
      return;
    }
    size_t below = 0;
    const uint64_t cut = SelectKey(&below);
    // Every key below the cut stays, and the first keep_ - below pairs whose
    // key equals it (one pair when ids are distinct).
    size_t quota = keep_ - below;
    size_t kept = 0;
    for (size_t i = 0; i < size_; ++i) {
      const Neighbor pair = pairs_[i];
      const uint64_t key = PairKey(pair.distance, pair.id);
      const bool tie = key == cut;
      const bool take = (key < cut) | (tie & (quota != 0));
      quota -= tie & take;
      pairs_[kept] = pair;
      kept += take;
    }
    size_ = kept;
    worst_ = cut;
  }

  // Radix select: the keep_-th smallest pair key of the buffer (counting
  // repeats), with the number of keys below it in *below. Each round buckets
  // the candidate keys by the 8 bits under the highest bit in which the
  // smallest and largest candidate differ (the bits above are shared), and
  // keeps the bucket that holds the rank, so every round at least halves
  // the spread, and the one-byte histogram fits in L1.
  uint64_t SelectKey(size_t* below) {
    select_.resize(size_);
    uint64_t lo = std::numeric_limits<uint64_t>::max(), hi = 0;
    for (size_t i = 0; i < size_; ++i) {
      const uint64_t key = PairKey(pairs_[i].distance, pairs_[i].id);
      select_[i] = key;
      lo = std::min(lo, key);
      hi = std::max(hi, key);
    }
    size_t count = size_;
    size_t rank = keep_ - 1;
    *below = 0;
    while (lo != hi) {
      const int top = 63 - __builtin_clzll(lo ^ hi);
      const int shift = std::max(top - 7, 0);
      uint32_t histogram[256];
      Histogram(select_.data(), count, shift, histogram);
      uint64_t digit = 0;
      while (rank >= histogram[digit]) {
        rank -= histogram[digit];
        *below += histogram[digit];
        ++digit;
      }
      size_t next = 0;
      lo = std::numeric_limits<uint64_t>::max();
      hi = 0;
      for (size_t i = 0; i < count; ++i) {
        const uint64_t key = select_[i];
        const bool in = ((key >> shift) & 255) == digit;
        select_[next] = key;
        next += in;
        lo = std::min(lo, in ? key : lo);
        hi = std::max(hi, in ? key : hi);
      }
      count = next;
    }
    return lo;
  }

  // Counts the 8-bit digits at `shift` of keys[0, count) into histogram[256].
  // Four partial histograms keep a run of equal digits from serializing on
  // one counter.
  static void Histogram(const uint64_t* keys, size_t count, int shift,
                        uint32_t* histogram) {
    uint32_t part[4][256] = {};
    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      ++part[0][(keys[i] >> shift) & 255];
      ++part[1][(keys[i + 1] >> shift) & 255];
      ++part[2][(keys[i + 2] >> shift) & 255];
      ++part[3][(keys[i + 3] >> shift) & 255];
    }
    for (; i < count; ++i) ++part[0][(keys[i] >> shift) & 255];
    for (size_t d = 0; d < 256; ++d) {
      histogram[d] = part[0][d] + part[1][d] + part[2][d] + part[3][d];
    }
  }

  size_t keep_;
  size_t capacity_;
  size_t size_ = 0;   // pairs_[0, size_) are live
  size_t limit_ = 0;  // pairs_.size()
  uint64_t worst_ = std::numeric_limits<uint64_t>::max();  // kept worst's key
  std::vector<Neighbor> pairs_;
  std::vector<uint64_t> select_;  // SelectKey's candidate keys
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

/// Selector pushdown over a candidate list: drops the ids `filter` rejects
/// from `ids`, keeping the order of the rest, and returns how many it
/// dropped. Every id is written back and the end moves past it when the
/// filter admits it, so a mix of members and non-members costs no
/// mispredicted branches.
inline size_t KeepMembers(const IdSelector& filter,
                          std::vector<uint32_t>* ids) {
  uint32_t* data = ids->data();
  const size_t count = ids->size();
  size_t kept = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t id = data[i];
    data[kept] = id;
    kept += filter.is_member(id);
  }
  ids->resize(kept);
  return count - kept;
}

}  // namespace usp

#endif  // USP_KNN_TOP_K_H_
