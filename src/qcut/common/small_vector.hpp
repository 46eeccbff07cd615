// A vector with N elements of in-place storage.
//
// Every circuit op carries short lists — its qubits, a permutation gate's
// cycles — and a spliced QPD holds hundreds of ops per request. Lists up to N
// long never touch the heap, so copying and destroying an op costs no
// allocation for them. Longer lists spill to the heap and behave like
// std::vector. Only trivially copyable element types are supported.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <type_traits>
#include <vector>

namespace qcut {

template <class T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable<T>::value,
                "SmallVector holds trivially copyable types only");
  static_assert(N > 0, "SmallVector needs in-place capacity");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using reference = T&;
  using const_reference = const T&;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept {}
  explicit SmallVector(size_type n, const T& value = T{}) { assign(n, value); }
  SmallVector(std::initializer_list<T> il) { assign(il.begin(), il.end()); }
  /// Implicit, so every API taking a SmallVector still accepts a std::vector.
  SmallVector(const std::vector<T>& v) { assign(v.begin(), v.end()); }  // NOLINT

  SmallVector(const SmallVector& o) { assign(o.begin(), o.end()); }
  SmallVector(SmallVector&& o) noexcept { take(o); }
  SmallVector& operator=(const SmallVector& o) {
    if (this != &o) {
      assign(o.begin(), o.end());
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }
  ~SmallVector() { release(); }

  size_type size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  T* data() noexcept { return ptr_; }
  const T* data() const noexcept { return ptr_; }
  iterator begin() noexcept { return ptr_; }
  iterator end() noexcept { return ptr_ + size_; }
  const_iterator begin() const noexcept { return ptr_; }
  const_iterator end() const noexcept { return ptr_ + size_; }
  T& operator[](size_type i) noexcept { return ptr_[i]; }
  const T& operator[](size_type i) const noexcept { return ptr_[i]; }

  void reserve(size_type n) {
    if (n > cap_) {
      grow(n);
    }
  }
  void push_back(const T& value) {
    const T v = value;  // `value` may live in this vector
    if (size_ == cap_) {
      grow(2 * cap_);
    }
    ptr_[size_++] = v;
  }
  void assign(size_type n, const T& value) {
    const T v = value;
    size_ = 0;
    reserve(n);
    std::fill_n(ptr_, n, v);
    size_ = n;
  }
  template <class It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    size_ = 0;
    reserve(n);
    std::copy(first, last, ptr_);
    size_ = n;
  }

  std::vector<T> to_vector() const { return std::vector<T>(begin(), end()); }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator!=(const SmallVector& a, const SmallVector& b) { return !(a == b); }
  friend bool operator==(const SmallVector& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<T>& a, const SmallVector& b) { return b == a; }
  friend bool operator!=(const SmallVector& a, const std::vector<T>& b) { return !(a == b); }
  friend bool operator!=(const std::vector<T>& a, const SmallVector& b) { return !(b == a); }

 private:
  bool on_heap() const noexcept { return ptr_ != store_.items; }

  void grow(size_type n) {
    T* fresh = new T[n];
    std::copy(ptr_, ptr_ + size_, fresh);
    if (on_heap()) {
      delete[] ptr_;
    }
    ptr_ = fresh;
    cap_ = n;
  }
  void release() noexcept {
    if (on_heap()) {
      delete[] ptr_;
    }
    ptr_ = store_.items;
    cap_ = N;
    size_ = 0;
  }
  /// Precondition: *this holds no heap block.
  void take(SmallVector& o) noexcept {
    if (o.on_heap()) {
      ptr_ = o.ptr_;
      cap_ = o.cap_;
      o.ptr_ = o.store_.items;
      o.cap_ = N;
    } else {
      std::copy(o.begin(), o.end(), store_.items);
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  // A union, so the in-place slots are not value-initialized on construction
  // (std::complex would zero all N of them).
  union Store {
    Store() noexcept {}
    T items[N];
  };

  T* ptr_ = store_.items;
  size_type size_ = 0;
  size_type cap_ = N;
  Store store_;
};

/// The wires one circuit op acts on: in place up to four, which covers the
/// gates and resource-pair initializes the cutter builds.
using QubitList = SmallVector<int, 4>;

}  // namespace qcut
