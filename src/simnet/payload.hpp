#pragma once

/// Message payloads. A simnet message's bytes are written once, when the
/// sender encodes them, and are immutable from then on: the engine moves the
/// buffer into the receiver's mailbox, a collective forwards the buffer it
/// received instead of re-encoding it, and every rank of an allgather reads
/// the same buffers through Block views. The only writer after encoding is
/// the atomic reference count, so any number of rank threads may read one
/// payload concurrently. Fault injection corrupts a private copy, never the
/// shared bytes (Cluster::ft_send).

#include <atomic>
#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace bladed::simnet {

/// Immutable, reference-counted bytes: one heap allocation holds the count
/// and the bytes. Copying shares the allocation; the bytes are never
/// copied after copy_of. An empty payload allocates nothing.
class Payload {
 public:
  /// Alignment of data(): a Block<T> views the bytes in place, so they
  /// start aligned for any trivially copyable T of fundamental alignment.
  static constexpr std::size_t kAlign = alignof(std::max_align_t);
  static_assert(kAlign <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  Payload() noexcept = default;
  Payload(const Payload& o) noexcept : h_(o.h_) {
    if (h_ != nullptr) h_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Payload& operator=(Payload o) noexcept {
    std::swap(h_, o.h_);
    return *this;
  }
  ~Payload() {
    if (h_ != nullptr &&
        h_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      h_->~Header();
      ::operator delete(h_);
    }
  }

  /// Encode: the one copy a message's bytes ever take.
  [[nodiscard]] static Payload copy_of(std::span<const std::byte> bytes) {
    Payload p;
    if (bytes.empty()) return p;
    auto* mem =
        static_cast<std::byte*>(::operator new(sizeof(Header) + bytes.size()));
    p.h_ = new (mem) Header{{1}, bytes.size()};
    std::memcpy(mem + sizeof(Header), bytes.data(), bytes.size());
    return p;
  }

  [[nodiscard]] const std::byte* data() const noexcept {
    return h_ != nullptr ? reinterpret_cast<const std::byte*>(h_ + 1)
                         : nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return h_ != nullptr ? h_->size : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return h_ == nullptr; }

 private:
  struct alignas(kAlign) Header {
    std::atomic<std::size_t> refs;
    std::size_t size;
  };
  static_assert(sizeof(Header) % kAlign == 0);

  Header* h_ = nullptr;
};

/// Read-only typed view of a payload that keeps the payload alive. Copies
/// share the bytes; the view stays valid after the run that produced it.
/// The elements are read in place: copy_of memcpy'd the bytes into storage
/// from operator new, which implicitly creates the T objects there.
template <class T>
  requires std::is_trivially_copyable_v<T>
class Block {
  static_assert(alignof(T) <= Payload::kAlign,
                "over-aligned element type cannot view a payload in place");

 public:
  Block() = default;
  /// `p.size()` must be a multiple of sizeof(T) (Comm checks it on receipt).
  explicit Block(Payload p) : p_(std::move(p)) {}

  [[nodiscard]] const T* data() const {
    return reinterpret_cast<const T*>(p_.data());
  }
  [[nodiscard]] std::size_t size() const { return p_.size() / sizeof(T); }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size(); }
  [[nodiscard]] const Payload& payload() const { return p_; }

 private:
  Payload p_;
};

}  // namespace bladed::simnet
