/**
 * @file
 * Tests for the AST arena, traversals, the memoized structural digest,
 * pruning (the reference pruneToFunctions the parser's direct
 * emission is checked against), and node-kind metadata.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "ast/ast.hh"
#include "base/logging.hh"
#include "frontend/parser.hh"
#include "oracle_frontend.hh"

namespace ccsa
{
namespace
{

TEST(NodeKind, NamesAndCategoriesCoverAllKinds)
{
    for (int i = 0; i < kNumNodeKinds; ++i) {
        NodeKind k = static_cast<NodeKind>(i);
        EXPECT_NE(nodeKindName(k), nullptr);
        // Category must be resolvable for every kind.
        NodeCategory c = nodeKindCategory(k);
        EXPECT_NE(nodeCategoryName(c), nullptr);
    }
}

TEST(NodeKind, CategorySpotChecks)
{
    EXPECT_EQ(nodeKindCategory(NodeKind::ForStmt),
              NodeCategory::Statement);
    EXPECT_EQ(nodeKindCategory(NodeKind::Add),
              NodeCategory::Operation);
    EXPECT_EQ(nodeKindCategory(NodeKind::IntLiteral),
              NodeCategory::Literal);
    EXPECT_EQ(nodeKindCategory(NodeKind::CallExpr),
              NodeCategory::Expression);
    EXPECT_EQ(nodeKindCategory(NodeKind::Root),
              NodeCategory::Support);
}

TEST(Ast, BuildAndNavigate)
{
    Ast ast(NodeKind::Root);
    int fn = ast.addNode(NodeKind::FunctionDef, ast.root(), "main");
    int body = ast.addNode(NodeKind::CompoundStmt, fn);
    int ret = ast.addNode(NodeKind::ReturnStmt, body);
    EXPECT_EQ(ast.size(), 4);
    EXPECT_EQ(ast.node(ret).parent, body);
    EXPECT_EQ(ast.node(fn).text, "main");
    EXPECT_EQ(ast.parents(), (std::vector<int>{-1, 0, 1, 2}));
    EXPECT_EQ(ast.depth(), 4);
    EXPECT_EQ(ast.countKind(NodeKind::ReturnStmt), 1);
    EXPECT_EQ(ast.subtreeSize(fn), 3);
}

TEST(Ast, InvalidAccessPanics)
{
    Ast ast;
    EXPECT_THROW(ast.node(5), PanicError);
    EXPECT_THROW(ast.addNode(NodeKind::IfStmt, 9), PanicError);
}

TEST(Ast, PreorderVisitsParentFirstInOrder)
{
    Ast ast(NodeKind::Root);
    int a = ast.addNode(NodeKind::FunctionDef, 0, "a");
    int b = ast.addNode(NodeKind::FunctionDef, 0, "b");
    int a1 = ast.addNode(NodeKind::CompoundStmt, a);
    std::vector<int> visited;
    ast.visitPreorder([&](int id) { visited.push_back(id); });
    EXPECT_EQ(visited, (std::vector<int>{0, a, a1, b}));
}

TEST(Ast, KindIdsMatchNodes)
{
    Ast ast(NodeKind::Root);
    ast.addNode(NodeKind::IfStmt, 0);
    auto ids = ast.kindIds();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], kindId(NodeKind::Root));
    EXPECT_EQ(ids[1], kindId(NodeKind::IfStmt));
}

TEST(Ast, SExpressionFormat)
{
    Ast ast(NodeKind::Root);
    int fn = ast.addNode(NodeKind::FunctionDef, 0, "main");
    ast.addNode(NodeKind::CompoundStmt, fn);
    EXPECT_EQ(ast.toSExpression(),
              "(Root (FunctionDef:main (CompoundStmt)))");
}

TEST(Ast, DotContainsAllNodesAndEdges)
{
    Ast ast(NodeKind::Root);
    int fn = ast.addNode(NodeKind::FunctionDef, 0, "f");
    ast.addNode(NodeKind::CompoundStmt, fn);
    std::string dot = ast.toDot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
}

TEST(Prune, KeepsOnlyFunctionSubtrees)
{
    Ast full(NodeKind::Root);
    // Global decl should be pruned away.
    int g = full.addNode(NodeKind::DeclStmt, 0, "int");
    full.addNode(NodeKind::VarDecl, g, "global");
    int f1 = full.addNode(NodeKind::FunctionDef, 0, "main");
    int b1 = full.addNode(NodeKind::CompoundStmt, f1);
    full.addNode(NodeKind::ReturnStmt, b1);
    int f2 = full.addNode(NodeKind::FunctionDef, 0, "helper");
    full.addNode(NodeKind::CompoundStmt, f2);

    Ast pruned = oracle::pruneToFunctions(full);
    EXPECT_EQ(pruned.countKind(NodeKind::DeclStmt), 0);
    EXPECT_EQ(pruned.countKind(NodeKind::FunctionDef), 2);
    // Functions hang directly off the root (§IV-A).
    for (int id : pruned.nodesOfKind(NodeKind::FunctionDef))
        EXPECT_EQ(pruned.node(id).parent, pruned.root());
    EXPECT_EQ(pruned.countKind(NodeKind::ReturnStmt), 1);
}

TEST(Ast, DeepChainWalksWithoutRecursion)
{
    // addNode puts no bound on depth; a 100k-deep chain would
    // overflow a recursive s-expression or pruning walk.
    constexpr int kDepth = 100000;
    Ast full(NodeKind::Root);
    full.addNode(NodeKind::DeclStmt, 0, "int");
    int parent = full.addNode(NodeKind::FunctionDef, 0, "deep");
    for (int i = 0; i < kDepth; ++i)
        parent = full.addNode(NodeKind::CompoundStmt, parent);

    std::string sexpr = full.toSExpression();
    EXPECT_EQ(sexpr.size(),
              std::string("(Root (DeclStmt:int) (FunctionDef:deep))")
                      .size() +
                  kDepth * std::string(" (CompoundStmt)").size());
    EXPECT_EQ(sexpr.rfind("(Root (DeclStmt:int) (FunctionDef:deep "
                          "(CompoundStmt (CompoundStmt",
                          0),
              0u);

    // Pruning drops the global and keeps the chain node for node.
    Ast pruned = oracle::pruneToFunctions(full);
    ASSERT_EQ(pruned.size(), kDepth + 2);
    EXPECT_EQ(pruned.depth(), kDepth + 2);
    EXPECT_EQ(pruned.node(1).text, "deep");
    for (int id = 2; id < pruned.size(); ++id) {
        ASSERT_EQ(pruned.node(id).parent, id - 1);
        ASSERT_EQ(pruned.node(id).kind, NodeKind::CompoundStmt);
    }
}

TEST(Ast, AdoptedNodesMustFormOneTree)
{
    // Parent after child, as the parser numbers an operator after
    // its first operand.
    std::vector<AstNode> nodes(3);
    nodes[0].children = {2};
    nodes[1].kind = NodeKind::IntLiteral;
    nodes[1].parent = 2;
    nodes[2].kind = NodeKind::Negate;
    nodes[2].parent = 0;
    nodes[2].children = {1};
    Ast ast(nodes);
    EXPECT_EQ(ast.toSExpression(), "(Root (Negate (IntLiteral)))");

    std::vector<AstNode> cycle = nodes;
    cycle[0].children.clear();
    cycle[2].parent = 1;
    cycle[1].children = {2};
    EXPECT_THROW(Ast{cycle}, PanicError);
    std::vector<AstNode> twice = nodes;
    twice[2].children = {1, 1};
    EXPECT_THROW(Ast{twice}, PanicError);
    std::vector<AstNode> badParent = nodes;
    badParent[1].parent = 0;
    EXPECT_THROW(Ast{badParent}, PanicError);
}

TEST(Ast, DepthIgnoresNodeOrder)
{
    // The full parse numbers each call after its callee, so the four
    // CallExprs follow their first children. Deepest path: Root,
    // FunctionDef, CompoundStmt, ReturnStmt, four CallExprs, VarRef f.
    Ast chained = parseSource("int main() { return f(1)(2)(3)(4); }");
    EXPECT_EQ(chained.depth(), 9);

    constexpr int kDepth = 100000;
    Ast chain(NodeKind::Root);
    int parent = chain.root();
    for (int i = 0; i < kDepth; ++i)
        parent = chain.addNode(NodeKind::CompoundStmt, parent);
    EXPECT_EQ(chain.depth(), kDepth + 1);
}

// ------------------------------------------------------------------
// digestAst's memo

static_assert(std::is_nothrow_move_constructible_v<Ast>,
              "std::vector<Ast> growth must move trees, not copy them");

/** A small tree built node by node (no digest memoized). */
Ast
sampleTree()
{
    Ast ast(NodeKind::Root);
    int fn = ast.addNode(NodeKind::FunctionDef, ast.root(), "main");
    int body = ast.addNode(NodeKind::CompoundStmt, fn);
    int ret = ast.addNode(NodeKind::ReturnStmt, body);
    ast.addNode(NodeKind::IntLiteral, ret, "0");
    return ast;
}

/** digestAst of a new tree adopting `ast`'s nodes: always a walk,
 *  never a memo hit, and it leaves `ast`'s memo alone. */
AstDigest
freshDigest(const Ast& ast)
{
    std::vector<AstNode> nodes;
    for (int id = 0; id < ast.size(); ++id)
        nodes.push_back(ast.node(id));
    return digestAst(Ast(std::move(nodes)));
}

TEST(AstDigest, MemoEqualsFreshWalk)
{
    Ast ast = sampleTree();
    const AstDigest first = digestAst(ast);
    EXPECT_EQ(digestAst(ast), first);
    EXPECT_EQ(freshDigest(ast), first);
    // The FNV value itself is pinned: cache keys, IPC shard routes and
    // the worker's digest-addressed compares all depend on it.
    EXPECT_EQ(first.lo, 0x8e303cf4e8f4ddedULL);
    EXPECT_EQ(first.hi, 0x6a3ddea5fd405283ULL);

    Ast parsed = parseAndPrune(
        "int main() { int n; cin >> n; "
        "for (int i = 0; i < n; i++) { n += i; } return n; }");
    const AstDigest memo = digestAst(parsed);
    EXPECT_EQ(digestAst(parsed), memo);
    EXPECT_EQ(freshDigest(parsed), memo);
    EXPECT_EQ(memo.lo, 0xbcc0a06499fdd0deULL);
    EXPECT_EQ(memo.hi, 0xbc683c0033b8090bULL);
}

TEST(AstDigest, MutationInvalidatesMemo)
{
    Ast ast = sampleTree();
    const AstDigest before = digestAst(ast);

    ast.addNode(NodeKind::IntLiteral, 3, "1");
    const AstDigest grown = digestAst(ast);
    EXPECT_FALSE(grown == before);
    EXPECT_EQ(grown, freshDigest(ast));

    ast.node(4).kind = NodeKind::VarRef;
    const AstDigest edited = digestAst(ast);
    EXPECT_FALSE(edited == grown);
    EXPECT_EQ(edited, freshDigest(ast));
}

TEST(AstDigest, CopiesAndMovesCarryMemo)
{
    Ast plain = sampleTree();
    const AstDigest want = digestAst(plain);
    Ast plainCopy(plain);
    EXPECT_EQ(digestAst(plainCopy), want);
    Ast plainMoved(std::move(plainCopy));
    EXPECT_EQ(digestAst(plainMoved), want);

    // A reference held across digestAst and written after it leaves
    // the memo stale (ast.hh says so). Only a carried memo returns
    // that stale value, so it tells a carried memo from a new walk.
    Ast ast = sampleTree();
    AstNode& held = ast.node(2);
    const AstDigest memo = digestAst(ast);
    held.kind = NodeKind::ForStmt;
    ASSERT_FALSE(freshDigest(ast) == memo);
    ASSERT_EQ(digestAst(ast), memo);

    Ast copy(ast);
    EXPECT_EQ(digestAst(copy), memo);
    Ast moved(std::move(copy));
    EXPECT_EQ(digestAst(moved), memo);
    Ast assigned;
    assigned = ast;
    EXPECT_EQ(digestAst(assigned), memo);
    Ast moveAssigned;
    moveAssigned = std::move(assigned);
    EXPECT_EQ(digestAst(moveAssigned), memo);

    std::vector<Ast> trees;
    trees.push_back(ast);
    for (int i = 0; i < 16; ++i)
        trees.push_back(sampleTree());
    EXPECT_EQ(digestAst(trees[0]), memo);

    // A tree without a memo hands none on: its copy walks.
    Ast unmemoized = sampleTree();
    AstNode& edit = unmemoized.node(2);
    Ast beforeEdit(unmemoized);
    edit.kind = NodeKind::ForStmt;
    Ast afterEdit(unmemoized);
    EXPECT_EQ(digestAst(beforeEdit), want);
    EXPECT_EQ(digestAst(afterEdit), freshDigest(unmemoized));
}

TEST(AstDigest, ConcurrentFirstDigestsAgree)
{
    // Wide enough that the first walks overlap: every thread finds
    // no memo, walks, and stores the same value.
    Ast base(NodeKind::Root);
    int fn = base.addNode(NodeKind::FunctionDef, base.root(), "f");
    for (int i = 0; i < 20000; ++i)
        base.addNode(i % 2 ? NodeKind::IntLiteral : NodeKind::VarRef,
                     fn + i / 3);
    const AstDigest want = freshDigest(base);

    constexpr int kThreads = 8;
    for (int round = 0; round < 4; ++round) {
        const Ast tree(base);
        std::atomic<int> arrived{0};
        std::vector<AstDigest> got(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                arrived.fetch_add(1);
                while (arrived.load() < kThreads)
                    std::this_thread::yield();
                got[t] = digestAst(tree);
            });
        }
        for (std::thread& th : threads)
            th.join();
        for (int t = 0; t < kThreads; ++t)
            EXPECT_EQ(got[t], want) << "round " << round << " thread " << t;
        EXPECT_EQ(digestAst(tree), want);
    }
}

TEST(Prune, NoFunctionsFatal)
{
    Ast full(NodeKind::Root);
    full.addNode(NodeKind::DeclStmt, 0);
    EXPECT_THROW(oracle::pruneToFunctions(full), FatalError);
}

} // namespace
} // namespace ccsa
