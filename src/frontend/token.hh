/**
 * @file
 * Token definitions for the MiniCxx frontend.
 */

#ifndef CCSA_FRONTEND_TOKEN_HH
#define CCSA_FRONTEND_TOKEN_HH

#include <string_view>

namespace ccsa
{

/** Lexical token kinds of MiniCxx. */
enum class TokenKind
{
    Identifier,
    IntLit,
    DoubleLit,
    CharLit,
    StringLit,

    // Keywords.
    KwInt, KwLong, KwDouble, KwChar, KwBool, KwVoid,
    KwString, KwVector,
    KwIf, KwElse, KwFor, KwWhile, KwDo,
    KwReturn, KwBreak, KwContinue,
    KwTrue, KwFalse,
    KwConst, KwUsing, KwNamespace, KwAuto,

    // Punctuation and operators.
    LParen, RParen, LBrace, RBrace, LBracket, RBracket,
    Semi, Comma, Dot, Question, Colon,
    Assign,
    Plus, Minus, Star, Slash, Percent,
    PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign,
    PlusPlus, MinusMinus,
    Less, Greater, LessEq, GreaterEq, EqualEqual, NotEqual,
    AmpAmp, PipePipe, Bang,
    Amp, Pipe, Caret, LtLt, GtGt,

    Eof,
};

/** @return printable token-kind name for diagnostics. */
const char* tokenKindName(TokenKind k);

/**
 * One lexed token with its source position. The text views the
 * lexed source, which must outlive the token. Number literals span
 * their digits without the integer suffix; string and char literals
 * span the raw characters between the quotes, escapes unresolved.
 */
struct Token
{
    TokenKind kind = TokenKind::Eof;
    std::string_view text;
    int line = 0;
    int col = 0;
};

} // namespace ccsa

#endif // CCSA_FRONTEND_TOKEN_HH
