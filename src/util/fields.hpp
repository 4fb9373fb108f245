// Named field tables for counter structs. A struct of std::uint64_t
// counters lists its fields once, as {name, &S::field} entries, and every
// whole-struct operation iterates that table. The table order is the
// checkpoint layout: declaration order, growing only at the end. Each
// struct ties sizeof(S) to its table in a static_assert, so a field with
// no table entry does not compile.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace uncharted::util {

template <typename S>
struct Field {
  std::string_view name;
  std::uint64_t S::*member;
};

template <typename S, std::size_t N>
using Fields = std::array<Field<S>, N>;

template <typename S, std::size_t N>
void add_fields(S& into, const S& from, const Fields<S, N>& table) {
  for (const auto& f : table) into.*f.member += from.*f.member;
}

template <typename S, std::size_t N>
std::uint64_t sum_fields(const S& s, const Fields<S, N>& table) {
  std::uint64_t total = 0;
  for (const auto& f : table) total += s.*f.member;
  return total;
}

/// Each field as u64le, in table order.
template <typename S, std::size_t N>
void save_fields(ByteWriter& w, const S& s, const Fields<S, N>& table) {
  for (const auto& f : table) w.u64le(s.*f.member);
}

/// Reads what save_fields wrote, stopping at the first read error.
template <typename S, std::size_t N>
Status load_fields(ByteReader& r, S& s, const Fields<S, N>& table) {
  for (const auto& f : table) {
    auto v = r.u64le();
    if (!v) return v.error();
    s.*f.member = v.value();
  }
  return Status::Ok();
}

}  // namespace uncharted::util
