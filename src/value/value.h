// Value: a 64-bit tagged handle over the engine's Herbrand universe.
//
// The paper's programs range over integers (costs, grades, stage values),
// constants (node names like `a`, `nil`), and ground functor terms (the
// Huffman tree constructor `t(X,Y)` of Example 6). We represent all of
// them as one 8-byte handle:
//
//   tag 0 kInt    : payload is a signed 61-bit integer, stored inline
//   tag 1 kSymbol : payload is an id into the engine's SymbolTable
//   tag 2 kTerm   : payload is an id into the engine's TermTable
//   tag 3 kNil    : the distinguished constant `nil`
//
// Symbols and terms are hash-consed (interned), so Value equality is raw
// 64-bit equality and tuples are flat arrays of Value. Everything that
// needs the *content* of a symbol or term (ordering, printing) goes
// through the owning ValueStore.
#ifndef GDLOG_VALUE_VALUE_H_
#define GDLOG_VALUE_VALUE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace gdlog {

enum class ValueKind : uint8_t { kInt = 0, kSymbol = 1, kTerm = 2, kNil = 3 };

using SymbolId = uint32_t;
using TermId = uint32_t;

class Value {
 public:
  /// Default-constructed Value is the integer 0.
  constexpr Value() : bits_(0) {}

  static constexpr int64_t kMinInt = -(int64_t{1} << 60);
  static constexpr int64_t kMaxInt = (int64_t{1} << 60) - 1;

  /// True iff `v` fits the inline 61-bit payload. Paths fed by user input
  /// (the lexer, arithmetic builtins) must test this and report an error
  /// instead of relying on the CHECK in Int().
  static constexpr bool IntInRange(int64_t v) {
    return v >= kMinInt && v <= kMaxInt;
  }

  static Value Int(int64_t v) {
    GDLOG_CHECK(IntInRange(v)) << "int value out of range";
    return Value(static_cast<uint64_t>(v) << 3 |
                 static_cast<uint64_t>(ValueKind::kInt));
  }
  static Value Symbol(SymbolId id) {
    return Value(static_cast<uint64_t>(id) << 3 |
                 static_cast<uint64_t>(ValueKind::kSymbol));
  }
  static Value Term(TermId id) {
    return Value(static_cast<uint64_t>(id) << 3 |
                 static_cast<uint64_t>(ValueKind::kTerm));
  }
  static constexpr Value Nil() {
    return Value(static_cast<uint64_t>(ValueKind::kNil));
  }

  ValueKind kind() const { return static_cast<ValueKind>(bits_ & 0x7); }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_symbol() const { return kind() == ValueKind::kSymbol; }
  bool is_term() const { return kind() == ValueKind::kTerm; }
  bool is_nil() const { return kind() == ValueKind::kNil; }

  int64_t AsInt() const {
    GDLOG_CHECK(is_int());
    return static_cast<int64_t>(bits_) >> 3;  // arithmetic shift keeps sign
  }
  SymbolId AsSymbolId() const {
    GDLOG_CHECK(is_symbol());
    return static_cast<SymbolId>(bits_ >> 3);
  }
  TermId AsTermId() const {
    GDLOG_CHECK(is_term());
    return static_cast<TermId>(bits_ >> 3);
  }

  uint64_t bits() const { return bits_; }
  uint64_t Hash() const { return Mix64(bits_); }

  friend bool operator==(Value a, Value b) { return a.bits_ == b.bits_; }
  friend bool operator!=(Value a, Value b) { return a.bits_ != b.bits_; }
  /// Raw bit order — suitable for hash-set tie-breaking, NOT the semantic
  /// order used by comparison builtins (see ValueStore::Compare).
  friend bool operator<(Value a, Value b) { return a.bits_ < b.bits_; }

 private:
  explicit constexpr Value(uint64_t bits) : bits_(bits) {}
  uint64_t bits_;
};

struct ValueHash {
  size_t operator()(Value v) const { return static_cast<size_t>(v.Hash()); }
};

class MemoryBudget;  // common/guardrails.h
class SymbolTable;
class TermTable;

/// Owns the interning tables for one Engine; the context needed to
/// create, compare, and print Values.
class ValueStore {
 public:
  ValueStore();
  ~ValueStore();

  ValueStore(const ValueStore&) = delete;
  ValueStore& operator=(const ValueStore&) = delete;

  /// Charges the interning tables (symbols, terms) to `budget`, which
  /// must outlive this store.
  void set_memory_budget(MemoryBudget* budget);

  // -- Construction ------------------------------------------------------
  Value MakeSymbol(std::string_view name);
  /// Interns the ground term functor(args...). A 0-ary term is distinct
  /// from the symbol of the same name.
  Value MakeTerm(std::string_view functor, std::span<const Value> args);
  Value MakeTerm(SymbolId functor, std::span<const Value> args);
  /// The anonymous grouping tuple (a, b, ...) used by choice goals such as
  /// choice((X,C), Y) — a term with the reserved functor "$tuple".
  Value MakeTuple(std::span<const Value> args);

  // -- Inspection --------------------------------------------------------
  std::string_view SymbolName(SymbolId id) const;
  std::string_view SymbolName(Value v) const { return SymbolName(v.AsSymbolId()); }
  SymbolId TermFunctor(TermId id) const;
  std::span<const Value> TermArgs(TermId id) const;
  bool IsTuple(Value v) const;

  /// Semantic total order: nil < ints (by value) < symbols (by name) <
  /// terms (by functor name, then arity, then args lexicographically).
  /// This is the order implemented by the <, <=, >, >= builtins and the
  /// least/most extrema.
  int Compare(Value a, Value b) const;

  std::string ToString(Value v) const;

  size_t num_symbols() const;
  size_t num_terms() const;

  SymbolId tuple_functor() const { return tuple_functor_; }

 private:
  std::unique_ptr<SymbolTable> symbols_;
  std::unique_ptr<TermTable> terms_;
  SymbolId tuple_functor_;
};

}  // namespace gdlog

#endif  // GDLOG_VALUE_VALUE_H_
