#include "greedy/huffman.h"

namespace gdlog {

// Deviation from the paper's text (see huffman.h): the h rule re-checks
// subtree usage at firing time. The paper's feasible-time checks alone
// admit unintended stable models: choice(X, I) and choice(Y, I) are
// separate FDs, so a subtree used once as a left child may be reused as
// a right child (e.g. t(f,e) then t(e,f)), compounding costs forever.
// The stage-relative NotExists goals below mention I, so the engine
// evaluates them when the candidate pops — exactly the missing guard.
const char kHuffmanProgram[] = R"(
  h(X, C, 0) <- letter(X, C).
  h(t(X, Y), C, I) <- next(I), feasible(t(X, Y), C, J), J < I,
                      least(C, I),
                      not (subtree(X, L1), L1 < I),
                      not (subtree(Y, L2), L2 < I),
                      choice(X, I), choice(Y, I).
  feasible(t(X, Y), C, I) <- h(X, C1, J), h(Y, C2, K),
                             not (subtree(X, L1), L1 < I),
                             not (subtree(Y, L2), L2 < I),
                             I = max(J, K), X != Y, C = C1 + C2.
  subtree(X, I) <- h(t(X, _), _, I).
  subtree(X, I) <- h(t(_, X), _, I).
)";

namespace {

void AssignCodes(const ValueStore& store, Value node, const std::string& path,
                 std::map<std::string, std::string>* codes) {
  if (node.is_symbol()) {
    (*codes)[std::string(store.SymbolName(node))] = path.empty() ? "0" : path;
    return;
  }
  if (!node.is_term()) return;
  const auto args = store.TermArgs(node.AsTermId());
  if (args.size() != 2) return;
  AssignCodes(store, args[0], path + "0", codes);
  AssignCodes(store, args[1], path + "1", codes);
}

}  // namespace

Result<DeclarativeHuffman> HuffmanTree(
    const std::vector<std::pair<std::string, int64_t>>& frequencies,
    const EngineOptions& options) {
  auto engine = std::make_unique<Engine>(options);
  GDLOG_RETURN_IF_ERROR(engine->LoadProgram(kHuffmanProgram));
  std::vector<Value> rows;
  rows.reserve(2 * frequencies.size());
  for (const auto& [name, freq] : frequencies) {
    rows.insert(rows.end(), {engine->Sym(name), Value::Int(freq)});
  }
  GDLOG_RETURN_IF_ERROR(engine->AddFacts("letter", 2, rows));
  GDLOG_RETURN_IF_ERROR(engine->Run());

  DeclarativeHuffman out;
  Value root;
  int64_t max_stage = -1;
  for (const auto& row : engine->Query("h", 3)) {
    if (row[0].is_term()) {
      out.total_cost += row[1].AsInt();
      ++out.merges;
    }
    if (row[2].is_int() && row[2].AsInt() > max_stage) {
      max_stage = row[2].AsInt();
      root = row[0];
    }
  }
  if (max_stage >= 0) {
    out.tree = engine->store().ToString(root);
    AssignCodes(engine->store(), root, "", &out.codes);
  }
  out.engine = std::move(engine);
  return out;
}

}  // namespace gdlog
