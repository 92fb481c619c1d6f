#include "ast/ast.hh"

#include <sstream>
#include <utility>

#include "base/logging.hh"

namespace ccsa
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
/** Second stream: different offset so the two words are independent. */
constexpr std::uint64_t kFnvOffset2 = 0x6C62272E07BB0142ULL;

inline void
mix(std::uint64_t& h, std::uint64_t v)
{
    h = (h ^ v) * kFnvPrime;
}

} // namespace

AstDigest
digestAst(const Ast& ast)
{
    AstDigest d;
    if (ast.digest_.load(&d))
        return d;
    d.lo = kFnvOffset;
    d.hi = kFnvOffset2;
    mix(d.lo, static_cast<std::uint64_t>(ast.size()));
    mix(d.hi, static_cast<std::uint64_t>(ast.size()));
    for (const AstNode& n : ast.nodes_) {
        std::uint64_t word =
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(n.parent)) << 32) |
            static_cast<std::uint32_t>(n.kind);
        mix(d.lo, word);
        mix(d.hi, word + 0x9E3779B97F4A7C15ULL);
    }
    ast.digest_.store(d);
    return d;
}

Ast::Ast(NodeKind root_kind)
{
    AstNode root;
    root.kind = root_kind;
    root.parent = -1;
    nodes_.push_back(std::move(root));
}

Ast::Ast(std::vector<AstNode> nodes) : nodes_(std::move(nodes))
{
    if (nodes_.empty() || nodes_[0].parent != -1)
        panic("Ast: node 0 must be a root");
    // Walk down from the root: every node must be reached exactly
    // once, through a parent its own link names.
    std::vector<bool> seen(nodes_.size(), false);
    std::vector<int> stack{0};
    seen[0] = true;
    std::size_t reached = 1;
    while (!stack.empty()) {
        int cur = stack.back();
        stack.pop_back();
        for (int c : nodes_[cur].children) {
            if (c <= 0 || c >= size() || seen[c] ||
                nodes_[c].parent != cur)
                panic("Ast: bad child link ", cur, " -> ", c);
            seen[c] = true;
            ++reached;
            stack.push_back(c);
        }
    }
    if (reached != nodes_.size())
        panic("Ast: ", nodes_.size() - reached,
              " nodes unreachable from the root");
}

int
Ast::addNode(NodeKind kind, int parent, std::string text)
{
    if (parent < 0 || parent >= size())
        panic("Ast::addNode: invalid parent ", parent);
    digest_.clear();
    int id = size();
    AstNode n;
    n.kind = kind;
    n.parent = parent;
    n.text = std::move(text);
    nodes_.push_back(std::move(n));
    nodes_[parent].children.push_back(id);
    return id;
}

const AstNode&
Ast::node(int id) const
{
    if (id < 0 || id >= size())
        panic("Ast::node: invalid id ", id);
    return nodes_[id];
}

AstNode&
Ast::node(int id)
{
    if (id < 0 || id >= size())
        panic("Ast::node: invalid id ", id);
    digest_.clear();
    return nodes_[id];
}

std::vector<int>
Ast::parents() const
{
    std::vector<int> out(nodes_.size());
    for (int i = 0; i < size(); ++i)
        out[i] = nodes_[i].parent;
    return out;
}

std::vector<int>
Ast::kindIds() const
{
    std::vector<int> out(nodes_.size());
    for (int i = 0; i < size(); ++i)
        out[i] = kindId(nodes_[i].kind);
    return out;
}

int
Ast::depth() const
{
    // Walk down from the root: an adopted node vector may number a
    // parent after its children, so id order says nothing about
    // depth. A loop rather than recursion, as addNode puts no bound
    // on depth.
    int best = 1;
    std::vector<std::pair<int, int>> stack{{root(), 1}};
    while (!stack.empty()) {
        auto [id, d] = stack.back();
        stack.pop_back();
        best = std::max(best, d);
        for (int c : nodes_[id].children)
            stack.emplace_back(c, d + 1);
    }
    return best;
}

int
Ast::countKind(NodeKind kind) const
{
    int c = 0;
    for (const auto& n : nodes_)
        if (n.kind == kind)
            ++c;
    return c;
}

std::vector<int>
Ast::nodesOfKind(NodeKind kind) const
{
    std::vector<int> out;
    visitPreorder([&](int id) {
        if (nodes_[id].kind == kind)
            out.push_back(id);
    });
    return out;
}

int
Ast::subtreeSize(int id) const
{
    int count = 0;
    std::vector<int> stack{id};
    while (!stack.empty()) {
        int cur = stack.back();
        stack.pop_back();
        ++count;
        for (int c : node(cur).children)
            stack.push_back(c);
    }
    return count;
}

void
Ast::visitPreorder(const std::function<void(int)>& fn) const
{
    std::vector<int> stack{root()};
    while (!stack.empty()) {
        int cur = stack.back();
        stack.pop_back();
        fn(cur);
        const auto& ch = nodes_[cur].children;
        for (auto it = ch.rbegin(); it != ch.rend(); ++it)
            stack.push_back(*it);
    }
}

std::string
Ast::toSExpression() const
{
    std::ostringstream os;
    auto open = [&](int id) {
        os << "(" << nodeKindName(nodes_[id].kind);
        if (!nodes_[id].text.empty())
            os << ":" << nodes_[id].text;
    };
    // (node, index of its next child to render); a loop rather than
    // recursion, as addNode puts no bound on depth.
    std::vector<std::pair<int, std::size_t>> stack{{root(), 0}};
    open(root());
    while (!stack.empty()) {
        int id = stack.back().first;
        std::size_t next = stack.back().second++;
        const auto& ch = nodes_[id].children;
        if (next == ch.size()) {
            os << ")";
            stack.pop_back();
            continue;
        }
        os << " ";
        open(ch[next]);
        stack.emplace_back(ch[next], 0);
    }
    return os.str();
}

std::string
Ast::toDot() const
{
    std::ostringstream os;
    os << "digraph ast {\n  node [shape=box];\n";
    for (int i = 0; i < size(); ++i) {
        os << "  n" << i << " [label=\"" << nodeKindName(nodes_[i].kind);
        if (!nodes_[i].text.empty())
            os << "\\n" << nodes_[i].text;
        os << "\"];\n";
    }
    for (int i = 0; i < size(); ++i)
        for (int c : nodes_[i].children)
            os << "  n" << i << " -> n" << c << ";\n";
    os << "}\n";
    return os.str();
}

} // namespace ccsa
