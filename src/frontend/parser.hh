/**
 * @file
 * Recursive-descent parser for MiniCxx producing ccsa::Ast trees. The
 * grammar covers the constructs emitted by the corpus generator (and a
 * useful superset of hand-written competitive-programming C++):
 * functions, scalar/array/vector declarations, the full statement set,
 * and C-style expressions with standard precedence, including iostream
 * style I/O via the shift operators.
 */

#ifndef CCSA_FRONTEND_PARSER_HH
#define CCSA_FRONTEND_PARSER_HH

#include <vector>

#include "ast/ast.hh"
#include "frontend/token.hh"

namespace ccsa
{

/** Parse MiniCxx source text into a full translation-unit Ast. */
class Parser
{
  public:
    /** @param tokens lexer output (must end with Eof). */
    explicit Parser(std::vector<Token> tokens);

    /**
     * Parse a translation unit.
     * @return the AST rooted at a Root node whose children are
     * function definitions and global declarations.
     * @throws FatalError with line/col info on syntax errors.
     */
    Ast parseTranslationUnit();

  private:
    const Token& peek(int ahead = 0) const;
    const Token& advance();
    bool check(TokenKind kind) const;
    bool accept(TokenKind kind);
    const Token& expect(TokenKind kind, const char* context);
    [[noreturn]] void syntaxError(const char* context) const;

    /** Consume a '>' that may be the first half of a '>>' token. */
    void expectTemplateClose();

    bool atTypeStart() const;
    std::string parseType();

    void parseTopLevel(Ast& ast);
    void parseFunctionRest(Ast& ast, const std::string& type,
                           const std::string& name);
    int parseBlock(Ast& ast, int parent);
    int parseStatement(Ast& ast, int parent);
    int parseDeclStmt(Ast& ast, int parent);
    void parseDeclaratorRestNamed(Ast& ast, int decl_stmt,
                                  const std::string& type,
                                  const std::string& name);

    int parseExpression(Ast& ast, int parent);
    int parseAssignment(Ast& ast, int parent);
    int parseTernary(Ast& ast, int parent);
    int parseBinary(Ast& ast, int parent, int min_prec);
    int parseUnary(Ast& ast, int parent);
    int parsePostfix(Ast& ast, int parent);
    int parsePrimary(Ast& ast, int parent);

    /** Holds one nesting level while a statement, expression or
     * unary operand is being parsed; see kMaxNestingDepth. */
    class Nesting;

    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

/** Convenience: lex + parse in one call. */
Ast parseSource(const std::string& source);

/** Convenience: lex + parse + prune to function definitions (§IV-A). */
Ast parseAndPrune(const std::string& source);

} // namespace ccsa

#endif // CCSA_FRONTEND_PARSER_HH
