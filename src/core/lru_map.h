// Bounded least-recently-used map with exact string keys — the storage
// engine behind PlanCache and SolverCache (DESIGN.md §8).
//
// Keys are full canonical encodings (core/fingerprint.h), so a lookup hit
// proves key equality; no hashing shortcut can produce a false hit — the
// hash only picks the bucket, and equality still compares every byte. Each
// key is hashed once (MemoKey): the entry keeps its hash, so the index
// never rehashes it, on insertion or on eviction. The recency list owns
// the entries; the index maps {view, hash} pairs into the owning nodes
// (std::list nodes never relocate, so the views stay valid across splices
// and unrelated insertions).
//
// Not thread-safe by design: every cache consumer in the repo confines
// lookups and insertions to serial sections (or to state owned by exactly
// one worker), which is also what keeps hit/miss counts and eviction order
// invariant across ODN_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace odn::core {

// A view of exact key bytes plus their precomputed hash: what the indexes
// over MemoKeys are keyed on. Equality compares the hashes, then every
// byte.
struct MemoKeyRef {
  std::string_view bytes;
  std::size_t hash = 0;

  friend bool operator==(const MemoKeyRef& a, const MemoKeyRef& b) noexcept {
    return a.hash == b.hash && a.bytes == b.bytes;
  }
  struct Hash {
    std::size_t operator()(const MemoKeyRef& key) const noexcept {
      return key.hash;
    }
  };
};

// An exact memo key and its hash, computed once. A lookup and the
// insertion that follows its miss share the hash.
class MemoKey {
 public:
  explicit MemoKey(std::string bytes)
      : bytes_(std::move(bytes)), hash_(hash_of(bytes_)) {}

  static std::size_t hash_of(std::string_view bytes) noexcept {
    return std::hash<std::string_view>{}(bytes);
  }

  const std::string& bytes() const noexcept { return bytes_; }
  std::size_t hash() const noexcept { return hash_; }
  MemoKeyRef ref() const noexcept { return {bytes_, hash_}; }

  friend bool operator==(const MemoKey& a, const MemoKey& b) noexcept {
    return a.ref() == b.ref();
  }

  // Drops any spare capacity the builder reserved, so a stored key costs
  // exactly its bytes.
  void shrink_to_fit() { bytes_.shrink_to_fit(); }

 private:
  std::string bytes_;
  std::size_t hash_;
};

template <class Value>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0)
      throw std::invalid_argument("LruMap: capacity must be >= 1");
  }

  // The index holds iterators and views into the list; default copying
  // would alias the source. Nothing in the repo needs cache copies.
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;
  LruMap(LruMap&&) noexcept = default;
  LruMap& operator=(LruMap&&) noexcept = default;

  // Returns the cached value, bumping the entry to most-recent; nullptr on
  // miss. The pointer stays valid until the entry is evicted or cleared.
  Value* find(const MemoKey& key) { return find_ref(key.ref()); }
  Value* find(std::string_view key) {
    return find_ref(MemoKeyRef{key, MemoKey::hash_of(key)});
  }

  // Inserts `key` (overwriting in place if present), evicting the
  // least-recently-used entry when over capacity.
  Value& insert(MemoKey key, Value value) {
    if (Value* existing = find(key)) {
      *existing = std::move(value);
      return *existing;
    }
    key.shrink_to_fit();
    entries_.push_front(Entry{std::move(key), std::move(value)});
    index_.emplace(entries_.front().key.ref(), entries_.begin());
    if (entries_.size() > capacity_) {
      index_.erase(entries_.back().key.ref());
      entries_.pop_back();
      ++evictions_;
    }
    return entries_.front().value;
  }
  Value& insert(std::string key, Value value) {
    return insert(MemoKey(std::move(key)), std::move(value));
  }

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  // Recency introspection (tests pin the eviction order through these).
  const std::string& mru_key() const {
    if (entries_.empty()) throw std::logic_error("LruMap: empty");
    return entries_.front().key.bytes();
  }
  const std::string& lru_key() const {
    if (entries_.empty()) throw std::logic_error("LruMap: empty");
    return entries_.back().key.bytes();
  }

  void clear() {
    index_.clear();
    entries_.clear();
  }

 private:
  struct Entry {
    MemoKey key;
    Value value;
  };

  Value* find_ref(const MemoKeyRef& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<MemoKeyRef, typename std::list<Entry>::iterator,
                     MemoKeyRef::Hash>
      index_;
};

}  // namespace odn::core
