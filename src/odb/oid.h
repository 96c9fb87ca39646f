#ifndef ODEVIEW_ODB_OID_H_
#define ODEVIEW_ODB_OID_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace ode::odb {

/// Identifier of a cluster (the set of persistent objects of one class).
using ClusterId = uint32_t;

/// Logical object identifier: stable across updates and relocations.
///
/// Ode groups persistent objects of one type into a *cluster*; an `Oid`
/// names the cluster plus a per-cluster logical id assigned at creation
/// and never reused. The physical (page, slot) location is resolved
/// through the cluster's object directory.
struct Oid {
  ClusterId cluster = 0;
  uint64_t local = 0;

  bool IsNull() const { return cluster == 0 && local == 0; }
  static Oid Null() { return Oid{}; }

  friend bool operator==(const Oid& a, const Oid& b) {
    return a.cluster == b.cluster && a.local == b.local;
  }
  friend bool operator!=(const Oid& a, const Oid& b) { return !(a == b); }
  friend bool operator<(const Oid& a, const Oid& b) {
    if (a.cluster != b.cluster) return a.cluster < b.cluster;
    return a.local < b.local;
  }

  /// "c<cluster>:o<local>", e.g. "c3:o17"; "null" for the null OID.
  std::string ToString() const;
};

/// Streams `ToString()`, so gtest prints a failing OID by name.
std::ostream& operator<<(std::ostream& os, const Oid& oid);

}  // namespace ode::odb

template <>
struct std::hash<ode::odb::Oid> {
  size_t operator()(const ode::odb::Oid& oid) const noexcept {
    return std::hash<uint64_t>()((static_cast<uint64_t>(oid.cluster) << 40) ^
                                 oid.local);
  }
};

#endif  // ODEVIEW_ODB_OID_H_
