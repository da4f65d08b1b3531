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
/// Pairs arrive in blocks, each already scored in full (one probed bucket's
/// ADC scores, one chunk of a scan). One select per block drops every pair
/// that cannot be among the `keep` best: the pairs above the block's own
/// keep-th and those at or above the kept worst; the rest are appended in
/// arrival order. Pairs are ordered by an order-preserving 32-bit key of the
/// distance (-0 folded into +0) and then by id, so ties keep the smaller id
/// (the earlier arrival among equal ids). The select is a radix select on
/// the block's keys (float keys, or a monotone score's integer sums):
/// one histogram of the 8 bits under the highest bit in which the smallest
/// and largest key differ, one listing of the pairs up to the bin that holds
/// the keep-th, and a finish inside that bin; the ids matter only for the
/// ties at the keep-th key. A single block thus arrives cut to `keep`, and
/// Take does no work; blocks append until the buffer (4 * keep slots, at
/// least 64) would overflow, which cuts it to `keep` again, so memory stays
/// O(min(keep, stream length)).
///
/// A Shortlist keeps its buffers across Reset, so one per worker serves every
/// query without allocating.
class Shortlist {
 public:
  explicit Shortlist(size_t keep = 0) { Reset(keep); }

  /// Empties the selector and sets how many pairs it keeps.
  void Reset(size_t keep) {
    keep_ = keep;
    // Saturates rather than wraps for a keep near SIZE_MAX (a caller's "keep
    // everything", or a rerank budget read from disk): that buffer is never
    // cut.
    capacity_ = keep > std::numeric_limits<size_t>::max() / 4
                    ? std::numeric_limits<size_t>::max()
                    : std::max<size_t>(4 * keep, 64);
    size_ = 0;
    worst_ = kNoWorst;
  }

  /// Offers the n pairs (distances[i], ids[i]); a null `ids` means id i.
  void Push(const float* distances, const uint32_t* ids, size_t n) {
    if (keep_ == 0 || n == 0) return;
    Reserve(std::min(n, keep_));
    size_ += Select(
        n, worst_, [&](size_t i) { return distances[i]; },
        [&](size_t i) { return IdAt(ids, i); }, pairs_.data() + size_);
  }

  /// Offers the n pairs (score(sums[i]), ids[i]), a null `ids` meaning id i,
  /// where `score` maps a sum to a float without ever decreasing (the pq4
  /// kernel's uint16 sums and QuantizedLut::Score). The select runs on the
  /// sums: the keep-th smallest sum bounds the block's best, and only the
  /// pairs kept are scored. When a neighbouring sum shares the keep-th sum's
  /// score (so the id tie-break would span several sums), every pair is
  /// scored and the block goes through the float entry instead.
  template <typename Score>
  void Push(const uint16_t* sums, const Score& score, const uint32_t* ids,
            size_t n) {
    if (keep_ == 0 || n == 0) return;
    Reserve(std::min(n, keep_));
    uint32_t cut_key = 0, cut_id = 0;
    if (n <= keep_) {
      list_.resize(n);
      for (size_t j = 0; j < n; ++j) list_[j] = static_cast<uint32_t>(j);
      listed_ = n;
    } else {
      size_t below = 0;
      const uint16_t cut = ListBest(sums, n, keep_ - 1, &below);
      cut_key = DistanceKey(score(cut));
      if ((cut > 0 && DistanceKey(score(cut - 1)) == cut_key) ||
          (cut < 0xFFFF && DistanceKey(score(cut + 1)) == cut_key)) {
        scores_.resize(n);
        for (size_t i = 0; i < n; ++i) scores_[i] = score(sums[i]);
        Push(scores_.data(), ids, n);
        return;
      }
      cut_id = KeepTies(
          cut, below, [&](size_t j) { return sums[j]; },
          [&](size_t j) { return IdAt(ids, j); });
    }
    // Every listed pair is among the block's keep best; those that do not
    // beat the kept worst are dropped on the way in.
    Neighbor* out = pairs_.data() + size_;
    size_t kept = 0;
    for (size_t t = 0; t < listed_; ++t) {
      const uint32_t j = list_[t];
      const Neighbor pair{score(sums[j]), IdAt(ids, j)};
      out[kept] = pair;
      kept += PairKey(DistanceKey(pair.distance), pair.id) < worst_;
    }
    size_ += kept;
    if (n > keep_) worst_ = std::min(worst_, PairKey(cut_key, cut_id));
  }

  /// The kept pairs in arrival order; valid until the next Reset or Push.
  const std::vector<Neighbor>& Take() {
    if (size_ > keep_) Cut();
    pairs_.resize(size_);
    return pairs_;
  }

 private:
  static constexpr uint64_t kNoWorst = std::numeric_limits<uint64_t>::max();

  static uint32_t IdAt(const uint32_t* ids, size_t i) {
    return ids != nullptr ? ids[i] : static_cast<uint32_t>(i);
  }

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
  static uint64_t PairKey(uint32_t distance_key, uint32_t id) {
    return uint64_t{distance_key} << 32 | id;
  }

  static int BitWidth(uint32_t x) { return x == 0 ? 0 : 32 - __builtin_clz(x); }

  // Makes room to append `add` pairs: a buffer that would pass its capacity
  // is cut to keep_ first.
  void Reserve(size_t add) {
    if (size_ + add > capacity_) Cut();
    if (pairs_.size() < size_ + add) pairs_.resize(size_ + add);
  }

  // Cuts the buffer to its keep_ best, in arrival order. The kept worst
  // itself is in the buffer, so the pairs up to it take part.
  void Cut() {
    size_ = Select(
        size_, worst_ == kNoWorst ? kNoWorst : worst_ + 1,
        [&](size_t i) { return pairs_[i].distance; },
        [&](size_t i) { return pairs_[i].id; }, pairs_.data());
  }

  // Writes to `out`, in arrival order, the keep_ best of the n pairs
  // (distance_at(i), id_at(i)) whose pair key is below `bound` (all of them
  // for kNoWorst), and returns how many it wrote; when more than keep_ take
  // part, the kept worst becomes the keep_-th of them. `out` may be the
  // pairs' own storage (the writes trail the reads).
  template <typename DistanceAt, typename IdAt>
  size_t Select(size_t n, uint64_t bound, const DistanceAt& distance_at,
                const IdAt& id_at, Neighbor* out) {
    keys_.resize(n);
    const bool all = bound == kNoWorst;
    size_t count = n;
    if (all) {
      for (size_t i = 0; i < n; ++i) keys_[i] = DistanceKey(distance_at(i));
    } else {
      // Only the pairs under the bound take part: their keys, and where
      // each sits among the n.
      slots_.resize(n);
      count = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t key = DistanceKey(distance_at(i));
        keys_[count] = key;
        slots_[count] = static_cast<uint32_t>(i);
        count += PairKey(key, id_at(i)) < bound;
      }
    }
    const auto slot = [&](size_t j) -> size_t { return all ? j : slots_[j]; };
    if (count <= keep_) {
      for (size_t j = 0; j < count; ++j) {
        out[j] = {distance_at(slot(j)), id_at(slot(j))};
      }
      return count;
    }
    size_t below = 0;
    const uint32_t cut = ListBest(keys_.data(), count, keep_ - 1, &below);
    const uint32_t cut_id = KeepTies(
        cut, below, [&](size_t j) { return keys_[j]; },
        [&](size_t j) { return id_at(slot(j)); });
    for (size_t t = 0; t < listed_; ++t) {
      const size_t i = slot(list_[t]);
      out[t] = {distance_at(i), id_at(i)};
    }
    worst_ = PairKey(cut, cut_id);
    return listed_;
  }

  // Returns the rank-th smallest of keys[0, n) (counting repeats), with the
  // number of keys under it in *below, and lists in list_[0, listed_), in
  // ascending order, every j whose key is at most it.
  template <typename Key>
  Key ListBest(const Key* keys, size_t n, size_t rank, size_t* below) {
    Key lo = keys[0], hi = keys[0];
    for (size_t j = 1; j < n; ++j) {
      lo = std::min(lo, keys[j]);
      hi = std::max(hi, keys[j]);
    }
    list_.resize(n);
    *below = 0;
    if (lo == hi) {
      for (size_t j = 0; j < n; ++j) list_[j] = static_cast<uint32_t>(j);
      listed_ = n;
      return lo;
    }
    const int shift = std::max(BitWidth(static_cast<uint32_t>(hi - lo)) - 8, 0);
    uint32_t histogram[256] = {};
    for (size_t j = 0; j < n; ++j) ++histogram[(keys[j] - lo) >> shift];
    uint32_t digit = 0;
    while (rank >= histogram[digit]) {
      rank -= histogram[digit];
      *below += histogram[digit];
      ++digit;
    }
    const uint32_t bin_lo = lo + (digit << shift);
    const uint32_t bin_hi = static_cast<uint32_t>(std::min<uint64_t>(
        hi, uint64_t{lo} + (uint64_t{digit + 1} << shift) - 1));
    size_t listed = 0;
    for (size_t j = 0; j < n; ++j) {
      list_[listed] = static_cast<uint32_t>(j);
      listed += keys[j] <= bin_hi;
    }
    listed_ = listed;
    if (shift == 0) return static_cast<Key>(bin_lo);
    // Finish inside the bin: the keep-th key is the rank-th of its keys.
    select_.resize(listed + 1);
    size_t members = 0;
    for (size_t t = 0; t < listed; ++t) {
      const uint32_t key = keys[list_[t]];
      select_[members] = key;
      members += key >= bin_lo;
    }
    size_t in_bin_below = 0;
    const uint32_t cut = SelectRank(select_.data(), members, rank,
                                    &in_bin_below);
    *below += in_bin_below;
    size_t kept = 0;
    for (size_t t = 0; t < listed; ++t) {
      const uint32_t j = list_[t];
      list_[kept] = j;
      kept += keys[j] <= cut;
    }
    listed_ = kept;
    return static_cast<Key>(cut);
  }

  // The rank-th smallest of keys[0, count) (counting repeats), with the
  // number of keys under it in *below; reorders the keys. Radix rounds as in
  // ListBest, each keeping only the bin that holds the rank, so every round
  // at least halves the spread; a few keys are simply partitioned.
  static uint32_t SelectRank(uint32_t* keys, size_t count, size_t rank,
                             size_t* below) {
    uint32_t kth;
    if (count <= 64) {
      std::nth_element(keys, keys + rank, keys + count);
      kth = keys[rank];
      *below = 0;
      for (size_t i = 0; i < rank; ++i) *below += keys[i] < kth;
      return kth;
    }
    uint32_t lo = std::numeric_limits<uint32_t>::max(), hi = 0;
    for (size_t i = 0; i < count; ++i) {
      lo = std::min(lo, keys[i]);
      hi = std::max(hi, keys[i]);
    }
    *below = 0;
    while (lo != hi) {
      const int shift = std::max(BitWidth(hi - lo) - 8, 0);
      uint32_t histogram[256] = {};
      for (size_t i = 0; i < count; ++i) ++histogram[(keys[i] - lo) >> shift];
      uint32_t digit = 0;
      while (rank >= histogram[digit]) {
        rank -= histogram[digit];
        *below += histogram[digit];
        ++digit;
      }
      size_t next = 0;
      uint32_t next_lo = std::numeric_limits<uint32_t>::max(), next_hi = 0;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t key = keys[i];
        const bool in = ((key - lo) >> shift) == digit;
        keys[next] = key;
        next += in;
        next_lo = std::min(next_lo, in ? key : next_lo);
        next_hi = std::max(next_hi, in ? key : next_hi);
      }
      count = next;
      lo = next_lo;
      hi = next_hi;
    }
    return lo;
  }

  // Of the listed pairs (keys at most `cut`, `below` of them under it),
  // keeps every one under the cut and the keep_ - below at the cut with the
  // smallest ids (earlier arrivals first among equal ids). Returns the id of
  // the keep_-th pair in that order.
  template <typename KeyAt, typename IdAt>
  uint32_t KeepTies(uint32_t cut, size_t below, const KeyAt& key_at,
                    const IdAt& id_at) {
    const size_t quota = keep_ - below;
    // A tie's rank: its id above its arrival among the ties.
    ties_.clear();
    for (size_t t = 0; t < listed_; ++t) {
      const uint32_t j = list_[t];
      if (key_at(j) == cut) {
        ties_.push_back(uint64_t{id_at(j)} << 32 | ties_.size());
      }
    }
    if (ties_.size() <= quota) {
      return static_cast<uint32_t>(
          *std::max_element(ties_.begin(), ties_.end()) >> 32);
    }
    std::nth_element(ties_.begin(), ties_.begin() + (quota - 1), ties_.end());
    const uint64_t last = ties_[quota - 1];
    size_t kept = 0;
    uint64_t tie = 0;
    for (size_t t = 0; t < listed_; ++t) {
      const uint32_t j = list_[t];
      const bool at_cut = key_at(j) == cut;
      const bool take = !at_cut || (uint64_t{id_at(j)} << 32 | tie) <= last;
      tie += at_cut;
      list_[kept] = j;
      kept += take;
    }
    listed_ = kept;
    return static_cast<uint32_t>(last >> 32);
  }

  size_t keep_ = 0;
  size_t capacity_ = 0;
  size_t size_ = 0;  // pairs_[0, size_) are live
  uint64_t worst_ = kNoWorst;  // key of the keep_-th pair seen so far
  std::vector<Neighbor> pairs_;
  // Select scratch.
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> list_;
  size_t listed_ = 0;  // list_[0, listed_) are live
  std::vector<uint32_t> select_;
  std::vector<uint64_t> ties_;
  std::vector<float> scores_;
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
