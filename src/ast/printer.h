// Pretty printer for programs, rules, literals, and terms.
//
// Output round-trips through the parser (tested), and matches the paper's
// surface syntax: `head <- goal, goal, ... .`
#ifndef GDLOG_AST_PRINTER_H_
#define GDLOG_AST_PRINTER_H_

#include <string>

#include "ast/ast.h"

namespace gdlog {

std::string TermToString(const ValueStore& store, const TermNode& t);
std::string LiteralToString(const ValueStore& store, const Literal& l);
std::string RuleToString(const ValueStore& store, const Rule& r);
/// The ground facts, batch by batch, then the rules.
std::string ProgramToString(const ValueStore& store, const Program& p);

}  // namespace gdlog

#endif  // GDLOG_AST_PRINTER_H_
