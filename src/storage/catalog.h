// Catalog: maps predicate name/arity pairs to Relation storage.
//
// A predicate is identified by (name, arity) — p/2 and p/3 are distinct,
// as in standard Datalog practice.
#ifndef GDLOG_STORAGE_CATALOG_H_
#define GDLOG_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "storage/relation.h"

namespace gdlog {

using PredicateId = uint32_t;
inline constexpr PredicateId kNoPredicate = UINT32_MAX;

class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Returns the id for predicate name/arity, creating its relation on
  /// first sight. Finding an existing predicate allocates nothing.
  PredicateId Ensure(std::string_view name, uint32_t arity);

  /// Returns the id or kNoPredicate. Allocates nothing.
  PredicateId Lookup(std::string_view name, uint32_t arity) const;

  Relation& relation(PredicateId id) { return *relations_[id]; }
  const Relation& relation(PredicateId id) const { return *relations_[id]; }

  size_t size() const { return relations_.size(); }

  /// "name/arity" display string for diagnostics.
  std::string DisplayName(PredicateId id) const;

  /// Charges every relation (existing and future) to `budget`, which
  /// must outlive the catalog.
  void set_memory_budget(MemoryBudget* budget);

  /// Turns on the provenance side-column on every relation, existing and
  /// future (see Relation::EnableProvenance).
  void EnableProvenance();
  bool provenance_enabled() const { return provenance_; }

 private:
  // (name, arity) keys, looked up by (string_view, arity) without
  // building a key string.
  using Key = std::pair<std::string, uint32_t>;
  using KeyView = std::pair<std::string_view, uint32_t>;
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(KeyView k) const {
      return HashCombine(HashString(k.first), k.second);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(KeyView a, KeyView b) const { return a == b; }
  };

  std::unordered_map<Key, PredicateId, KeyHash, KeyEq> by_name_;
  std::vector<std::unique_ptr<Relation>> relations_;
  MemoryBudget* budget_ = nullptr;
  bool provenance_ = false;
};

}  // namespace gdlog

#endif  // GDLOG_STORAGE_CATALOG_H_
