/**
 * @file
 * Lexer and parser tests for the MiniCxx frontend, including its
 * nesting bound: hostile nesting comes back as a Status from
 * Engine::parseSource instead of overflowing the stack.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "base/logging.hh"
#include "frontend/lexer.hh"
#include "frontend/parser.hh"
#include "serve/engine.hh"

namespace ccsa
{
namespace
{

/** Tokens view their source: every caller passes a literal, whose
 * storage outlives the tokens. */
std::vector<Token>
lex(std::string_view src)
{
    return Lexer(src).tokenize();
}

TEST(Lexer, KeywordsAndIdentifiers)
{
    auto toks = lex("int foo while whilex");
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_EQ(toks[0].kind, TokenKind::KwInt);
    EXPECT_EQ(toks[1].kind, TokenKind::Identifier);
    EXPECT_EQ(toks[2].kind, TokenKind::KwWhile);
    EXPECT_EQ(toks[3].kind, TokenKind::Identifier);
    EXPECT_EQ(toks[4].kind, TokenKind::Eof);
}

TEST(Lexer, NumbersWithSuffixesAndFloats)
{
    auto toks = lex("42 1000000007LL 3.14 1e9 2.5e-3");
    EXPECT_EQ(toks[0].kind, TokenKind::IntLit);
    EXPECT_EQ(toks[1].kind, TokenKind::IntLit);
    EXPECT_EQ(toks[1].text, "1000000007");
    EXPECT_EQ(toks[2].kind, TokenKind::DoubleLit);
    EXPECT_EQ(toks[3].kind, TokenKind::DoubleLit);
    EXPECT_EQ(toks[4].kind, TokenKind::DoubleLit);
}

TEST(Lexer, StringAndCharLiterals)
{
    auto toks = lex("\"hi\\n\" 'a' '\\n'");
    EXPECT_EQ(toks[0].kind, TokenKind::StringLit);
    EXPECT_EQ(toks[1].kind, TokenKind::CharLit);
    EXPECT_EQ(toks[1].text, "a");
    EXPECT_EQ(toks[2].kind, TokenKind::CharLit);
}

TEST(Lexer, CommentsAndPreprocessorSkipped)
{
    auto toks = lex("#include <bits/stdc++.h>\n"
                    "// line comment\n"
                    "/* block\n comment */ int x;");
    EXPECT_EQ(toks[0].kind, TokenKind::KwInt);
    EXPECT_EQ(toks[1].text, "x");
}

TEST(Lexer, MultiCharOperators)
{
    auto toks = lex("++ -- += << >> <= >= == != && || %=");
    std::vector<TokenKind> expected{
        TokenKind::PlusPlus, TokenKind::MinusMinus,
        TokenKind::PlusAssign, TokenKind::LtLt, TokenKind::GtGt,
        TokenKind::LessEq, TokenKind::GreaterEq,
        TokenKind::EqualEqual, TokenKind::NotEqual,
        TokenKind::AmpAmp, TokenKind::PipePipe,
        TokenKind::PercentAssign};
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(toks[i].kind, expected[i]) << i;
}

TEST(Lexer, PositionsTracked)
{
    auto toks = lex("int\n  x;");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].line, 2);
    EXPECT_EQ(toks[1].col, 3);
}

TEST(Lexer, UnterminatedStringFatal)
{
    EXPECT_THROW(lex("\"oops"), FatalError);
}

TEST(Lexer, UnknownCharacterFatal)
{
    EXPECT_THROW(lex("int $x;"), FatalError);
}

// ---------------------------------------------------------------- //

TEST(Parser, MinimalMain)
{
    Ast ast = parseSource("int main() { return 0; }");
    EXPECT_EQ(ast.countKind(NodeKind::FunctionDef), 1);
    EXPECT_EQ(ast.countKind(NodeKind::ReturnStmt), 1);
}

TEST(Parser, UsingDirectiveSkipped)
{
    Ast ast = parseSource(
        "using namespace std;\nint main() { return 0; }");
    EXPECT_EQ(ast.countKind(NodeKind::FunctionDef), 1);
}

TEST(Parser, PrecedenceViaSExpression)
{
    Ast ast = parseSource("int main() { int x = 1 + 2 * 3; }");
    std::string s = ast.toSExpression();
    // Mul binds tighter than Add.
    EXPECT_NE(s.find("(Add (IntLiteral:1) (Mul (IntLiteral:2) "
                     "(IntLiteral:3)))"),
              std::string::npos)
        << s;
}

TEST(Parser, ParenthesesOverridePrecedence)
{
    Ast ast = parseSource("int main() { int x = (1 + 2) * 3; }");
    std::string s = ast.toSExpression();
    EXPECT_NE(s.find("(Mul (Add"), std::string::npos) << s;
}

TEST(Parser, AssignmentRightAssociative)
{
    Ast ast = parseSource("int main() { int a; int b; a = b = 3; }");
    std::string s = ast.toSExpression();
    EXPECT_NE(s.find("(Assign (VarRef:a) (Assign (VarRef:b) "
                     "(IntLiteral:3)))"),
              std::string::npos)
        << s;
}

TEST(Parser, ControlFlowStatements)
{
    Ast ast = parseSource(
        "int main() {\n"
        "    for (int i = 0; i < 10; i++) {\n"
        "        if (i % 2 == 0) continue; else break;\n"
        "    }\n"
        "    while (1 < 2) { ; }\n"
        "    do { } while (false);\n"
        "    return 0;\n"
        "}");
    EXPECT_EQ(ast.countKind(NodeKind::ForStmt), 1);
    EXPECT_EQ(ast.countKind(NodeKind::IfStmt), 1);
    EXPECT_EQ(ast.countKind(NodeKind::WhileStmt), 1);
    EXPECT_EQ(ast.countKind(NodeKind::DoWhileStmt), 1);
    EXPECT_EQ(ast.countKind(NodeKind::BreakStmt), 1);
    EXPECT_EQ(ast.countKind(NodeKind::ContinueStmt), 1);
}

TEST(Parser, ForStmtHasFourChildren)
{
    Ast ast = parseSource("int main() { for (;;) {} }");
    int loop = ast.nodesOfKind(NodeKind::ForStmt)[0];
    ASSERT_EQ(ast.node(loop).children.size(), 4u);
    EXPECT_EQ(ast.node(ast.node(loop).children[0]).kind,
              NodeKind::EmptyStmt);
    EXPECT_EQ(ast.node(ast.node(loop).children[1]).kind,
              NodeKind::EmptyStmt);
    EXPECT_EQ(ast.node(ast.node(loop).children[2]).kind,
              NodeKind::EmptyStmt);
}

TEST(Parser, VectorTypesIncludingNestedTemplates)
{
    Ast ast = parseSource(
        "int main() {\n"
        "    vector<int> a(10, 0);\n"
        "    vector<vector<int>> b(5);\n"
        "    vector<vector<int> > c(5);\n"
        "    return 0;\n"
        "}");
    EXPECT_EQ(ast.countKind(NodeKind::VarDecl), 3);
    EXPECT_EQ(ast.countKind(NodeKind::InitList), 3);
}

TEST(Parser, GlobalDeclarationsAndConstructorInit)
{
    Ast ast = parseSource(
        "const int LIM = 100;\n"
        "int table[100];\n"
        "vector<vector<int>> adj(100);\n"
        "int main() { return 0; }");
    EXPECT_EQ(ast.countKind(NodeKind::DeclStmt), 3);
    EXPECT_EQ(ast.countKind(NodeKind::ArrayExtent), 1);
}

TEST(Parser, ArrayDeclarators)
{
    Ast ast = parseSource("int main() { int dp[105][900 + 5]; }");
    EXPECT_EQ(ast.countKind(NodeKind::ArrayExtent), 2);
}

TEST(Parser, FunctionWithParamsStoresTypeAndName)
{
    Ast ast = parseSource(
        "int add(int a, long long b, vector<int>& v, string s) {\n"
        "    return a;\n"
        "}\n"
        "int main() { return add(1, 2, 3, 4); }");
    auto params = ast.nodesOfKind(NodeKind::Param);
    ASSERT_EQ(params.size(), 4u);
    EXPECT_EQ(ast.node(params[0]).text, "int|a");
    EXPECT_EQ(ast.node(params[1]).text, "long long|b");
    EXPECT_EQ(ast.node(params[2]).text, "vector<int>&|v");
    EXPECT_EQ(ast.node(params[3]).text, "string|s");
}

TEST(Parser, CallsSubscriptsMembersChained)
{
    Ast ast = parseSource(
        "int main() {\n"
        "    vector<vector<int>> adj(5);\n"
        "    adj[0].push_back(3);\n"
        "    int s = adj[0].size();\n"
        "    return 0;\n"
        "}");
    EXPECT_EQ(ast.countKind(NodeKind::CallExpr), 2);
    EXPECT_GE(ast.countKind(NodeKind::SubscriptExpr), 2);
    EXPECT_EQ(ast.countKind(NodeKind::MemberExpr), 2);
}

TEST(Parser, IostreamShiftChains)
{
    Ast ast = parseSource(
        "int main() {\n"
        "    int n;\n"
        "    cin >> n;\n"
        "    cout << n << \"\\n\";\n"
        "    return 0;\n"
        "}");
    EXPECT_EQ(ast.countKind(NodeKind::ShiftRight), 1);
    EXPECT_EQ(ast.countKind(NodeKind::ShiftLeft), 2);
}

TEST(Parser, TernaryAndLogicalOperators)
{
    Ast ast = parseSource(
        "int main() { int a = 1 < 2 && 3 > 2 ? 4 : 5; }");
    EXPECT_EQ(ast.countKind(NodeKind::CondExpr), 1);
    EXPECT_EQ(ast.countKind(NodeKind::LogicalAnd), 1);
}

TEST(Parser, UnaryOperators)
{
    Ast ast = parseSource(
        "int main() { int a = 0; a = -a; a = !a; ++a; a--; }");
    EXPECT_EQ(ast.countKind(NodeKind::Negate), 1);
    EXPECT_EQ(ast.countKind(NodeKind::LogicalNot), 1);
    EXPECT_EQ(ast.countKind(NodeKind::PreInc), 1);
    EXPECT_EQ(ast.countKind(NodeKind::PostDec), 1);
}

TEST(Parser, MultiDeclaratorStatement)
{
    Ast ast = parseSource("int main() { int a = 1, b, c = 2; }");
    EXPECT_EQ(ast.countKind(NodeKind::VarDecl), 3);
}

TEST(Parser, RecursiveFunction)
{
    Ast ast = parseSource(
        "long long gcdFn(long long a, long long b) {\n"
        "    if (b == 0) return a;\n"
        "    return gcdFn(b, a % b);\n"
        "}\n"
        "int main() { return 0; }");
    EXPECT_EQ(ast.countKind(NodeKind::FunctionDef), 2);
    EXPECT_EQ(ast.countKind(NodeKind::CallExpr), 1);
}

TEST(Parser, SyntaxErrorsCarryPositions)
{
    try {
        parseSource("int main() { int x = ; }");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("line 1"),
                  std::string::npos);
    }
}

TEST(Parser, MissingSemicolonFatal)
{
    EXPECT_THROW(parseSource("int main() { int x = 1 }"),
                 FatalError);
}

TEST(Parser, UnbalancedBraceFatal)
{
    EXPECT_THROW(parseSource("int main() { if (1) { }"),
                 FatalError);
}

/** `int main() { return <depth parens around 1>; }` — the return
 * statement and its expression hold two levels, each parenthesis
 * one more. */
std::string
nestedParens(int depth)
{
    return "int main() { return " + std::string(depth, '(') + "1" +
        std::string(depth, ')') + "; }";
}

/** A function body holding `depth` nested blocks (one level each). */
std::string
nestedBlocks(int depth)
{
    return "int main() " + std::string(depth + 1, '{') +
        std::string(depth + 1, '}');
}

/** `return -!-!...1;` with `depth` unary operators. */
std::string
unaryChain(int depth)
{
    std::string ops;
    for (int i = 0; i < depth; ++i)
        ops += i % 2 == 0 ? '-' : '!';
    return "int main() { return " + ops + "1; }";
}

TEST(Parser, HostileNestingReturnsStatus)
{
    for (const std::string& source :
         {nestedParens(100000), nestedBlocks(100000),
          unaryChain(100000)}) {
        Result<Ast> parsed = Engine::parseSource(source);
        ASSERT_FALSE(parsed.isOk());
        EXPECT_EQ(parsed.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(parsed.status().message().find("nesting"),
                  std::string::npos);
    }
}

TEST(Parser, NestingJustUnderTheBoundParses)
{
    // The bound is 1,000 levels; the enclosing statement and
    // expression take two of them.
    Result<Ast> parens = Engine::parseSource(nestedParens(998));
    ASSERT_TRUE(parens.isOk()) << parens.status().toString();
    EXPECT_FALSE(Engine::parseSource(nestedParens(999)).isOk());

    Result<Ast> blocks = Engine::parseSource(nestedBlocks(1000));
    ASSERT_TRUE(blocks.isOk()) << blocks.status().toString();
    EXPECT_FALSE(Engine::parseSource(nestedBlocks(1001)).isOk());

    Result<Ast> unary = Engine::parseSource(unaryChain(998));
    ASSERT_TRUE(unary.isOk()) << unary.status().toString();
    EXPECT_EQ(unary.value().countKind(NodeKind::Negate), 499);
    EXPECT_FALSE(Engine::parseSource(unaryChain(999)).isOk());
}

TEST(Parser, DeepVectorTypesParseWithoutRecursion)
{
    // Types nest through a loop, not the nesting bound: 100k
    // vector< levels parse, and the text spells every level.
    constexpr int kDepth = 100000;
    std::string type;
    for (int i = 0; i < kDepth; ++i)
        type += "vector<";
    type += "int";
    for (int i = 0; i < kDepth / 2; ++i)
        type += ">>";
    Result<Ast> parsed =
        Engine::parseSource("int main() { " + type + " x; }");
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const Ast& ast = parsed.value();
    auto decls = ast.nodesOfKind(NodeKind::DeclStmt);
    ASSERT_EQ(decls.size(), 1u);
    EXPECT_EQ(ast.node(decls[0]).text.size(),
              static_cast<std::size_t>(kDepth) * 8 + 3);
}

TEST(Parser, ParseAndPrunePipeline)
{
    Ast pruned = parseAndPrune(
        "#include <bits/stdc++.h>\n"
        "using namespace std;\n"
        "int g = 5;\n"
        "int helper(int x) { return x + g; }\n"
        "int main() { return helper(1); }");
    EXPECT_EQ(pruned.countKind(NodeKind::FunctionDef), 2);
    // Global decl gone.
    EXPECT_EQ(pruned.countKind(NodeKind::DeclStmt), 0);
}

} // namespace
} // namespace ccsa
