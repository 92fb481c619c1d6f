/**
 * @file
 * Hand-written lexer for MiniCxx, the C++ subset emitted by the corpus
 * generator. Skips whitespace, line/block comments and preprocessor
 * directives (#include lines carry no structural information for the
 * models, matching the paper's pruning).
 */

#ifndef CCSA_FRONTEND_LEXER_HH
#define CCSA_FRONTEND_LEXER_HH

#include <string_view>
#include <vector>

#include "frontend/token.hh"

namespace ccsa
{

/**
 * Tokenise MiniCxx source text. The lexer neither copies the source
 * nor allocates per token: every token views the caller's source,
 * which must outlive the tokens.
 */
class Lexer
{
  public:
    /** @param source full program text. */
    explicit Lexer(std::string_view source);

    /**
     * Lex the whole input.
     * @return tokens terminated by an Eof token.
     * @throws FatalError on malformed input (bad char, open string).
     */
    std::vector<Token> tokenize();

  private:
    char peek(int ahead = 0) const;
    char advance();
    bool match(char expected);
    bool atEnd() const;

    /** Advance over a run of characters in a newline-free class. */
    void skipWhile(bool (*inClass)(char));
    void skipTrivia();
    Token lexNumber();
    Token lexIdentifier();
    Token lexQuoted(char quote, TokenKind kind, const char* what);
    /** The token that starts at `start` and ends at the cursor. */
    Token makeToken(TokenKind kind, std::size_t start) const;

    std::string_view src_;
    std::size_t pos_ = 0;
    int line_ = 1;
    int col_ = 1;
    int tokLine_ = 1;
    int tokCol_ = 1;
};

} // namespace ccsa

#endif // CCSA_FRONTEND_LEXER_HH
