// The one keyed cache primitive, behind the service's circuit memo, plan and
// eval caches (svc/cache.hpp) and the split-skeleton cache (cut/fragment.hpp).
//
// shared_ptr<V> values under string keys, evicted least-recently-used in
// O(1) at a fixed capacity (0 = unbounded). get_or_build is single flight:
// concurrent callers of one key wait for one build and share its value; a
// build that throws is not cached, and the next caller builds again. The
// `cache.insert` fault hook fires before every insert — in get_or_build after
// the build, so an injected throw takes the failed-build path.
//
// Condition on builds: a build runs while its key is marked in flight, so it
// must never wait on work that only a waiter of the same cache could do (for
// example a task queued to a pool whose workers all wait here). Waiters do
// not poll cancellation; the leader's build polls its own token.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "qcut/common/fault.hpp"

namespace qcut {

template <typename V>
class SingleFlightCache {
 public:
  using Ptr = std::shared_ptr<V>;

  explicit SingleFlightCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// The resident value (refreshing its recency), or nullptr. Never waits.
  Ptr get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return lookup(key);
  }

  /// Inserts a non-null `value` unless `key` is resident (the first insert
  /// wins) and returns the resident value.
  Ptr put(const std::string& key, Ptr value) {
    fault::maybe_inject(fault::Site::kCacheInsert);
    std::lock_guard<std::mutex> lock(mu_);
    return insert(key, std::move(value));
  }

  /// The resident value of `key`, else the non-null result of one `build()`
  /// shared by every concurrent caller of `key`. `*hit` is false only for
  /// the caller that builds; a waiter handed the builder's value hits. A
  /// failed build rethrows to its builder only.
  template <typename Build>
  Ptr get_or_build(const std::string& key, Build&& build, bool* hit) {
    std::unique_lock<std::mutex> lock(mu_);
    built_.wait(lock, [&] { return in_flight_.count(key) == 0; });
    Ptr value = lookup(key);
    *hit = value != nullptr;
    if (*hit) {
      return value;
    }
    in_flight_.insert(key);
    lock.unlock();  // distinct keys build concurrently
    std::exception_ptr failure;
    try {
      value = build();
      fault::maybe_inject(fault::Site::kCacheInsert);
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    in_flight_.erase(key);
    built_.notify_all();
    if (failure) {
      std::rethrow_exception(failure);
    }
    return insert(key, std::move(value));
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }

 private:
  struct Entry {
    std::string key;
    Ptr value;
  };
  using List = std::list<Entry>;

  // lookup and insert run under mu_.
  Ptr lookup(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  Ptr insert(const std::string& key, Ptr value) {
    if (Ptr resident = lookup(key)) {
      return resident;
    }
    lru_.push_front(Entry{key, std::move(value)});
    index_.emplace(lru_.front().key, lru_.begin());
    if (capacity_ > 0 && lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
    }
    return lru_.front().value;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  List lru_;  ///< most recently used first
  /// Views of the list's keys (list nodes never move).
  std::unordered_map<std::string_view, typename List::iterator> index_;
  std::unordered_set<std::string> in_flight_;  ///< keys with a build running
  std::condition_variable built_;              ///< notified when a build ends
};

}  // namespace qcut
