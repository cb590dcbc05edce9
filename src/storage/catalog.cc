#include "storage/catalog.h"

namespace gdlog {

PredicateId Catalog::Ensure(std::string_view name, uint32_t arity) {
  auto it = by_name_.find(KeyView(name, arity));
  if (it != by_name_.end()) return it->second;
  const auto id = static_cast<PredicateId>(relations_.size());
  relations_.push_back(std::make_unique<Relation>(std::string(name), arity));
  by_name_.emplace(Key(std::string(name), arity), id);
  if (provenance_) relations_.back()->EnableProvenance();
  // Charged last: a charge that trips the "alloc" probe leaves the
  // relation registered, so a retry finds it instead of creating a
  // second relation under the same name.
  if (budget_ != nullptr) relations_.back()->set_memory_budget(budget_);
  return id;
}

void Catalog::set_memory_budget(MemoryBudget* budget) {
  budget_ = budget;
  for (auto& rel : relations_) rel->set_memory_budget(budget);
}

void Catalog::EnableProvenance() {
  provenance_ = true;
  for (auto& rel : relations_) rel->EnableProvenance();
}

PredicateId Catalog::Lookup(std::string_view name, uint32_t arity) const {
  auto it = by_name_.find(KeyView(name, arity));
  return it == by_name_.end() ? kNoPredicate : it->second;
}

std::string Catalog::DisplayName(PredicateId id) const {
  const Relation& r = *relations_[id];
  return r.name() + "/" + std::to_string(r.arity());
}

}  // namespace gdlog
