#include "frontend/lexer.hh"

#include <algorithm>
#include <string>

#include "base/logging.hh"

namespace ccsa
{

const char*
tokenKindName(TokenKind k)
{
    switch (k) {
      case TokenKind::Identifier: return "identifier";
      case TokenKind::IntLit: return "int literal";
      case TokenKind::DoubleLit: return "double literal";
      case TokenKind::CharLit: return "char literal";
      case TokenKind::StringLit: return "string literal";
      case TokenKind::KwInt: return "'int'";
      case TokenKind::KwLong: return "'long'";
      case TokenKind::KwDouble: return "'double'";
      case TokenKind::KwChar: return "'char'";
      case TokenKind::KwBool: return "'bool'";
      case TokenKind::KwVoid: return "'void'";
      case TokenKind::KwString: return "'string'";
      case TokenKind::KwVector: return "'vector'";
      case TokenKind::KwIf: return "'if'";
      case TokenKind::KwElse: return "'else'";
      case TokenKind::KwFor: return "'for'";
      case TokenKind::KwWhile: return "'while'";
      case TokenKind::KwDo: return "'do'";
      case TokenKind::KwReturn: return "'return'";
      case TokenKind::KwBreak: return "'break'";
      case TokenKind::KwContinue: return "'continue'";
      case TokenKind::KwTrue: return "'true'";
      case TokenKind::KwFalse: return "'false'";
      case TokenKind::KwConst: return "'const'";
      case TokenKind::KwUsing: return "'using'";
      case TokenKind::KwNamespace: return "'namespace'";
      case TokenKind::KwAuto: return "'auto'";
      case TokenKind::LParen: return "'('";
      case TokenKind::RParen: return "')'";
      case TokenKind::LBrace: return "'{'";
      case TokenKind::RBrace: return "'}'";
      case TokenKind::LBracket: return "'['";
      case TokenKind::RBracket: return "']'";
      case TokenKind::Semi: return "';'";
      case TokenKind::Comma: return "','";
      case TokenKind::Dot: return "'.'";
      case TokenKind::Question: return "'?'";
      case TokenKind::Colon: return "':'";
      case TokenKind::Assign: return "'='";
      case TokenKind::Plus: return "'+'";
      case TokenKind::Minus: return "'-'";
      case TokenKind::Star: return "'*'";
      case TokenKind::Slash: return "'/'";
      case TokenKind::Percent: return "'%'";
      case TokenKind::PlusAssign: return "'+='";
      case TokenKind::MinusAssign: return "'-='";
      case TokenKind::StarAssign: return "'*='";
      case TokenKind::SlashAssign: return "'/='";
      case TokenKind::PercentAssign: return "'%='";
      case TokenKind::PlusPlus: return "'++'";
      case TokenKind::MinusMinus: return "'--'";
      case TokenKind::Less: return "'<'";
      case TokenKind::Greater: return "'>'";
      case TokenKind::LessEq: return "'<='";
      case TokenKind::GreaterEq: return "'>='";
      case TokenKind::EqualEqual: return "'=='";
      case TokenKind::NotEqual: return "'!='";
      case TokenKind::AmpAmp: return "'&&'";
      case TokenKind::PipePipe: return "'||'";
      case TokenKind::Bang: return "'!'";
      case TokenKind::Amp: return "'&'";
      case TokenKind::Pipe: return "'|'";
      case TokenKind::Caret: return "'^'";
      case TokenKind::LtLt: return "'<<'";
      case TokenKind::GtGt: return "'>>'";
      case TokenKind::Eof: return "end of input";
    }
    return "unknown token";
}

namespace
{

// ASCII character classes: what <cctype> answers in the "C" locale,
// which ccsa never leaves.
bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isBlank(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

bool
isIdentStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool
isIdentChar(char c)
{
    return isIdentStart(c) || isDigit(c);
}

/** @return the keyword kind spelled by `s`, else Identifier. */
TokenKind
keywordKind(std::string_view s)
{
    switch (s.size()) {
      case 2:
        if (s == "if") return TokenKind::KwIf;
        if (s == "do") return TokenKind::KwDo;
        break;
      case 3:
        if (s == "int") return TokenKind::KwInt;
        if (s == "for") return TokenKind::KwFor;
        break;
      case 4:
        if (s == "long") return TokenKind::KwLong;
        if (s == "char") return TokenKind::KwChar;
        if (s == "bool") return TokenKind::KwBool;
        if (s == "void") return TokenKind::KwVoid;
        if (s == "else") return TokenKind::KwElse;
        if (s == "true") return TokenKind::KwTrue;
        if (s == "auto") return TokenKind::KwAuto;
        break;
      case 5:
        if (s == "float") return TokenKind::KwDouble;
        if (s == "while") return TokenKind::KwWhile;
        if (s == "break") return TokenKind::KwBreak;
        if (s == "false") return TokenKind::KwFalse;
        if (s == "const") return TokenKind::KwConst;
        if (s == "using") return TokenKind::KwUsing;
        break;
      case 6:
        if (s == "double") return TokenKind::KwDouble;
        if (s == "string") return TokenKind::KwString;
        if (s == "vector") return TokenKind::KwVector;
        if (s == "return") return TokenKind::KwReturn;
        break;
      case 8:
        if (s == "continue") return TokenKind::KwContinue;
        break;
      case 9:
        if (s == "namespace") return TokenKind::KwNamespace;
        break;
      default:
        break;
    }
    return TokenKind::Identifier;
}

} // namespace

Lexer::Lexer(std::string_view source) : src_(source) {}

char
Lexer::peek(int ahead) const
{
    std::size_t p = pos_ + static_cast<std::size_t>(ahead);
    return p < src_.size() ? src_[p] : '\0';
}

char
Lexer::advance()
{
    char c = src_[pos_++];
    if (c == '\n') {
        ++line_;
        col_ = 1;
    } else {
        ++col_;
    }
    return c;
}

bool
Lexer::match(char expected)
{
    if (atEnd() || src_[pos_] != expected)
        return false;
    advance();
    return true;
}

bool
Lexer::atEnd() const
{
    return pos_ >= src_.size();
}

void
Lexer::skipTrivia()
{
    while (!atEnd()) {
        char c = peek();
        if (c == ' ' || c == '\t' || c == '\r') {
            skipWhile(isBlank);
        } else if (c == '\n') {
            advance();
        } else if (c == '/' && peek(1) == '/') {
            while (!atEnd() && peek() != '\n')
                advance();
        } else if (c == '/' && peek(1) == '*') {
            advance();
            advance();
            while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
                advance();
            if (!atEnd()) {
                advance();
                advance();
            }
        } else if (c == '#' && col_ == 1) {
            // Preprocessor directive: discard the whole line.
            while (!atEnd() && peek() != '\n')
                advance();
        } else {
            break;
        }
    }
}

Token
Lexer::makeToken(TokenKind kind, std::size_t start) const
{
    Token t;
    t.kind = kind;
    t.text = src_.substr(start, pos_ - start);
    t.line = tokLine_;
    t.col = tokCol_;
    return t;
}

void
Lexer::skipWhile(bool (*inClass)(char))
{
    // The classes skipped this way hold no newline, so only the
    // column moves.
    std::size_t start = pos_;
    while (pos_ < src_.size() && inClass(src_[pos_]))
        ++pos_;
    col_ += static_cast<int>(pos_ - start);
}

Token
Lexer::lexNumber()
{
    std::size_t start = pos_;
    bool is_double = false;
    skipWhile(isDigit);
    if (peek() == '.' && isDigit(peek(1))) {
        is_double = true;
        advance();
        skipWhile(isDigit);
    }
    if (peek() == 'e' || peek() == 'E') {
        is_double = true;
        advance();
        if (peek() == '+' || peek() == '-')
            advance();
        skipWhile(isDigit);
    }
    Token t = makeToken(is_double ? TokenKind::DoubleLit
                                  : TokenKind::IntLit, start);
    // Integer suffixes (LL, LLU, U...) are consumed but not recorded.
    while (peek() == 'l' || peek() == 'L' || peek() == 'u' ||
           peek() == 'U')
        advance();
    return t;
}

Token
Lexer::lexIdentifier()
{
    std::size_t start = pos_;
    skipWhile(isIdentChar);
    Token t = makeToken(TokenKind::Identifier, start);
    t.kind = keywordKind(t.text);
    return t;
}

Token
Lexer::lexQuoted(char quote, TokenKind kind, const char* what)
{
    advance(); // opening quote
    std::size_t start = pos_;
    while (!atEnd() && peek() != quote) {
        char c = advance();
        if (c == '\\' && !atEnd())
            advance();
    }
    if (atEnd())
        fatal("lexer: unterminated ", what, " literal at line ",
              tokLine_);
    Token t = makeToken(kind, start);
    advance(); // closing quote
    return t;
}

std::vector<Token>
Lexer::tokenize()
{
    std::vector<Token> out;
    // ~3.7 source bytes per token on generated programs; the cap keeps
    // a huge blank input from reserving memory it never fills.
    out.reserve(std::min<std::size_t>(src_.size() / 3 + 16, 1 << 16));
    while (true) {
        skipTrivia();
        tokLine_ = line_;
        tokCol_ = col_;
        if (atEnd()) {
            out.push_back(makeToken(TokenKind::Eof, pos_));
            break;
        }
        char c = peek();
        if (isDigit(c)) {
            out.push_back(lexNumber());
            continue;
        }
        if (isIdentStart(c)) {
            out.push_back(lexIdentifier());
            continue;
        }
        if (c == '"') {
            out.push_back(lexQuoted('"', TokenKind::StringLit, "string"));
            continue;
        }
        if (c == '\'') {
            out.push_back(lexQuoted('\'', TokenKind::CharLit, "char"));
            continue;
        }
        std::size_t start = pos_;
        advance();
        TokenKind kind;
        switch (c) {
          case '(': kind = TokenKind::LParen; break;
          case ')': kind = TokenKind::RParen; break;
          case '{': kind = TokenKind::LBrace; break;
          case '}': kind = TokenKind::RBrace; break;
          case '[': kind = TokenKind::LBracket; break;
          case ']': kind = TokenKind::RBracket; break;
          case ';': kind = TokenKind::Semi; break;
          case ',': kind = TokenKind::Comma; break;
          case '.': kind = TokenKind::Dot; break;
          case '?': kind = TokenKind::Question; break;
          // "::" never appears in MiniCxx; treat as single colon.
          case ':': kind = TokenKind::Colon; break;
          case '+':
            kind = match('+') ? TokenKind::PlusPlus
                 : match('=') ? TokenKind::PlusAssign
                              : TokenKind::Plus;
            break;
          case '-':
            kind = match('-') ? TokenKind::MinusMinus
                 : match('=') ? TokenKind::MinusAssign
                              : TokenKind::Minus;
            break;
          case '*':
            kind = match('=') ? TokenKind::StarAssign : TokenKind::Star;
            break;
          case '/':
            kind = match('=') ? TokenKind::SlashAssign : TokenKind::Slash;
            break;
          case '%':
            kind = match('=') ? TokenKind::PercentAssign
                              : TokenKind::Percent;
            break;
          case '<':
            kind = match('<') ? TokenKind::LtLt
                 : match('=') ? TokenKind::LessEq
                              : TokenKind::Less;
            break;
          case '>':
            kind = match('>') ? TokenKind::GtGt
                 : match('=') ? TokenKind::GreaterEq
                              : TokenKind::Greater;
            break;
          case '=':
            kind = match('=') ? TokenKind::EqualEqual : TokenKind::Assign;
            break;
          case '!':
            kind = match('=') ? TokenKind::NotEqual : TokenKind::Bang;
            break;
          case '&':
            kind = match('&') ? TokenKind::AmpAmp : TokenKind::Amp;
            break;
          case '|':
            kind = match('|') ? TokenKind::PipePipe : TokenKind::Pipe;
            break;
          case '^': kind = TokenKind::Caret; break;
          default:
            fatal("lexer: unexpected character '", std::string(1, c),
                  "' at line ", tokLine_, ", col ", tokCol_);
        }
        out.push_back(makeToken(kind, start));
    }
    return out;
}

} // namespace ccsa
