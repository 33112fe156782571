// Byte-level serialization for service snapshots.
//
// GridJobService::snapshot()/restore() capture the FULL mid-run state of
// a service — pending queue, running attempts, WAN flows, outage
// cursors, RNG streams, telemetry — as one opaque byte string, used two
// ways: as the rollback token of the interleaving explorer
// (sched/explore.hpp) and as the on-disk checkpoint of the CLI's
// `serve --checkpoint-out/--resume`.
//
// Every stateful type declares its snapshot state ONCE, as a field list:
//
//   template <class V> void visit(V& v) { v(a, b, c); }
//
// SnapshotWriter and SnapshotReader are the two visitors: the same list
// writes the fields in order and reads them back in order, so a field
// can no longer be saved but forgotten on load. Loading-only work (index
// rebuilds, range checks) goes under `if constexpr (V::kLoading)`.
//
// Encoding contract: fixed-width host-endian integers and raw IEEE-754
// bit patterns for doubles (byte-faithful by construction — restoring a
// double reproduces the exact bits, which is what makes a resumed run's
// trace byte-identical to the uninterrupted one). Enums travel as their
// underlying type, bools as one 0/1 byte, strings and containers as a
// u64 count plus elements, std::array and C arrays as bare elements,
// and unordered maps in sorted-key order so equal states always produce
// equal bytes. Snapshots are NOT portable across endianness or
// struct-layout changes; the service prepends a magic, a version, and its
// configuration as `expect` tags (GridJobService::visit_config), and
// refuses mismatches by tag name.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace qrgrid::sched {

namespace snapshot_detail {

/// Is T a specialization of the type-parameter template Tmpl?
template <class T, template <class...> class Tmpl>
struct is_a : std::false_type {};
template <template <class...> class Tmpl, class... Args>
struct is_a<Tmpl<Args...>, Tmpl> : std::true_type {};
template <class T, template <class...> class Tmpl>
inline constexpr bool is_a_v = is_a<std::remove_cv_t<T>, Tmpl>::value;

template <class T>
struct is_std_array : std::false_type {};
template <class T, std::size_t N>
struct is_std_array<std::array<T, N>> : std::true_type {};

/// Element-wise with no count: C arrays and std::array.
template <class T>
inline constexpr bool is_fixed_v =
    std::is_array_v<T> || is_std_array<T>::value;

}  // namespace snapshot_detail

/// Appends fields to a byte string. No framing per field — reader and
/// writer agree on the sequence because both walk the same visit() list
/// (the version tag in the service header guards cross-build drift).
class SnapshotWriter {
 public:
  static constexpr bool kLoading = false;

  template <class... Ts>
  void operator()(const Ts&... fields) {
    (put(fields), ...);
  }

  /// A configuration tag: written like a field, but the reader checks it
  /// against the live value instead of assigning it.
  template <class T>
  void expect(const T& value, const char* /*what*/) {
    put(value);
  }

  const std::string& bytes() const { return out_; }

 private:
  template <class T>
  void put(const T& v) {
    using namespace snapshot_detail;
    if constexpr (std::is_same_v<T, bool>) {
      put(static_cast<std::uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_arithmetic_v<T>) {
      char buf[sizeof(T)];
      std::memcpy(buf, &v, sizeof(T));
      out_.append(buf, sizeof(T));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      put(static_cast<std::uint64_t>(v.size()));
      out_.append(v);
    } else if constexpr (is_fixed_v<T>) {
      for (const auto& e : v) put(e);
    } else if constexpr (is_a_v<T, std::pair>) {
      put(v.first);
      put(v.second);
    } else if constexpr (is_a_v<T, std::unordered_map>) {
      std::vector<const typename T::value_type*> sorted;
      sorted.reserve(v.size());
      for (const auto& e : v) sorted.push_back(&e);
      std::sort(sorted.begin(), sorted.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      put(static_cast<std::uint64_t>(sorted.size()));
      for (const auto* e : sorted) put(*e);
    } else if constexpr (requires(T& t, SnapshotWriter& w) { t.visit(w); }) {
      // Writing never mutates; visit() is non-const only so that one
      // member template serves both visitors.
      const_cast<T&>(v).visit(*this);
    } else {
      // vector, map, multiset: count plus elements in iteration order.
      put(static_cast<std::uint64_t>(v.size()));
      for (const auto& e : v) put(e);
    }
  }

  std::string out_;
};

/// Consumes the writer's byte sequence. Hostile input ends in
/// qrgrid::Error: every read is bounds-checked, and every count is
/// bounded by the bytes left before anything is allocated for it.
class SnapshotReader {
 public:
  static constexpr bool kLoading = true;

  explicit SnapshotReader(std::string bytes) : bytes_(std::move(bytes)) {}

  template <class... Ts>
  void operator()(Ts&... fields) {
    (get(fields), ...);
  }

  template <class T>
  void expect(const T& value, const char* what) {
    T saved{};
    get(saved);
    QRGRID_CHECK_MSG(saved == value, "snapshot " << what
                                         << " mismatches the service "
                                            "configuration");
  }

  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  template <class T>
  void get(T& v) {
    using namespace snapshot_detail;
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      get(b);
      v = b != 0;
    } else if constexpr (std::is_arithmetic_v<T>) {
      take(&v, sizeof(T));
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      get(raw);
      v = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::size_t n = count();
      v.assign(bytes_.data() + pos_, n);
      pos_ += n;
    } else if constexpr (is_fixed_v<T>) {
      for (auto& e : v) get(e);
    } else if constexpr (is_a_v<T, std::pair>) {
      get(v.first);
      get(v.second);
    } else if constexpr (is_a_v<T, std::map> ||
                         is_a_v<T, std::unordered_map>) {
      v.clear();
      for (std::size_t i = 0, n = count(); i < n; ++i) {
        typename T::key_type key{};
        typename T::mapped_type value{};
        get(key);
        get(value);
        // The writer lists each key once: a repeat would drop an entry.
        QRGRID_CHECK_MSG(v.emplace(std::move(key), std::move(value)).second,
                         "corrupt snapshot: repeated map key");
      }
    } else if constexpr (is_a_v<T, std::vector>) {
      v.clear();
      v.resize(count());
      for (auto& e : v) get(e);
    } else {
      v.visit(*this);
    }
  }

  /// A u64 element count, refused when it exceeds the bytes left: every
  /// element encodes to at least one byte, so a larger count can only be
  /// corruption — and must not reach an allocation.
  std::size_t count() {
    std::uint64_t n = 0;
    get(n);
    QRGRID_CHECK_MSG(n <= bytes_.size() - pos_,
                     "corrupt snapshot: count " << n << " at offset " << pos_
                                                << " exceeds the "
                                                << bytes_.size() - pos_
                                                << " bytes left");
    return static_cast<std::size_t>(n);
  }

  void take(void* out, std::size_t n) {
    QRGRID_CHECK_MSG(n <= bytes_.size() - pos_,
                     "truncated snapshot: need " << n << " bytes at offset "
                                                 << pos_ << " of "
                                                 << bytes_.size());
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }

  std::string bytes_;
  std::size_t pos_ = 0;
};

}  // namespace qrgrid::sched
