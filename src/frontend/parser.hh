/**
 * @file
 * Recursive-descent parser for MiniCxx producing ccsa::Ast trees. The
 * grammar covers the constructs emitted by the corpus generator (and a
 * useful superset of hand-written competitive-programming C++):
 * functions, scalar/array/vector declarations, the full statement set,
 * and C-style expressions with standard precedence, including iostream
 * style I/O via the shift operators.
 *
 * Both entry points lex into tokens that view the source, parse into
 * one flat per-parse node buffer (operators are re-hung over their
 * first operand in O(1)), and only then build the Ast. Nesting of
 * statements, expressions and unary operands is bounded, so hostile
 * input fails with a FatalError instead of overflowing the stack.
 */

#ifndef CCSA_FRONTEND_PARSER_HH
#define CCSA_FRONTEND_PARSER_HH

#include <string_view>

#include "ast/ast.hh"

namespace ccsa
{

/**
 * Lex and parse a translation unit.
 * @return the full AST rooted at a Root node whose children are
 * function definitions and global declarations; node ids follow the
 * order the parser creates nodes in (an operator after its first
 * operand).
 * @throws FatalError with line/col info on lexical or syntax errors.
 */
Ast parseSource(std::string_view source);

/**
 * Lex, parse and prune to function definitions (§IV-A): only the
 * function-definition subtrees, re-hung under a fresh root and
 * numbered in preorder. The full tree is never built.
 * @throws FatalError on the errors parseSource reports, or when the
 * input defines no function.
 */
Ast parseAndPrune(std::string_view source);

} // namespace ccsa

#endif // CCSA_FRONTEND_PARSER_HH
