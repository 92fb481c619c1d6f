/**
 * @file
 * Arena-backed abstract syntax tree. Node 0 is always the root; every
 * other node records its parent and ordered children. The deep models
 * consume only the kind sequence plus the tree shape, mirroring the
 * paper's pruned ROSE output (§IV-A: "a list of the node IDs and a
 * list of links between nodes").
 */

#ifndef CCSA_AST_AST_HH
#define CCSA_AST_AST_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ast/node_kind.hh"

namespace ccsa
{

/**
 * 128-bit structural digest of a tree or subtree: the key of the
 * serving caches (digestAst for whole trees, the encoder's Merkle
 * walk for subtrees).
 */
struct AstDigest
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool
    operator==(const AstDigest& other) const
    {
        return lo == other.lo && hi == other.hi;
    }
};

/** Hash functor so AstDigest can key unordered containers. */
struct AstDigestHash
{
    std::size_t
    operator()(const AstDigest& d) const
    {
        // lo is already a well-mixed 64-bit hash; fold hi in.
        return static_cast<std::size_t>(
            d.lo ^ (d.hi * 0x9E3779B97F4A7C15ULL));
    }
};

/** One AST node stored inside an Ast arena. */
struct AstNode
{
    NodeKind kind = NodeKind::Root;
    int parent = -1;
    std::vector<int> children;
    /** Identifier / literal spelling, kept for debugging & the judge. */
    std::string text;
};

class Ast;

/**
 * Digest the model-visible content of a tree (kinds + shape): two
 * independent FNV-1a streams over (parent, kind) in id order. It keys
 * the latent cache and routes the IPC shards. The first call walks
 * the tree and memoizes the value in it; later calls read the memo
 * until addNode or the non-const node() changes the tree. Threads may
 * digest one tree concurrently.
 */
AstDigest digestAst(const Ast& ast);

/**
 * A rooted ordered tree of AstNodes. Copies and moves carry the
 * digest memo, and a move never allocates.
 */
class Ast
{
  public:
    /** Create a tree containing only a root of the given kind. */
    explicit Ast(NodeKind root_kind = NodeKind::Root);

    /**
     * Adopt a finished node array, node 0 the root. Unlike addNode, a
     * parent may come after its children (the parser creates an
     * operator after its first operand).
     * @throws PanicError unless the nodes form one tree rooted at 0
     * whose parent and child links agree.
     */
    explicit Ast(std::vector<AstNode> nodes);

    /** Pre-size the arena for `n` nodes. */
    void reserve(int n) { nodes_.reserve(static_cast<std::size_t>(n)); }

    /**
     * Append a node under an existing parent.
     * @return the new node id.
     */
    int addNode(NodeKind kind, int parent, std::string text = "");

    /** @return node count. */
    int size() const { return static_cast<int>(nodes_.size()); }

    /** @return the root id (always 0). */
    int root() const { return 0; }

    const AstNode& node(int id) const;

    /**
     * Mutable access; clears the digest memo. A reference written
     * after a later digestAst call is not seen by the memo.
     */
    AstNode& node(int id);

    /** @return parent array (root = -1), e.g. for nn::TreeSpec. */
    std::vector<int> parents() const;

    /** @return per-node kind ids (embedding lookup indices). */
    std::vector<int> kindIds() const;

    /** @return maximum root-to-leaf depth (root alone = 1). */
    int depth() const;

    /** @return number of nodes with the given kind. */
    int countKind(NodeKind kind) const;

    /** @return ids of all nodes with the given kind, in preorder. */
    std::vector<int> nodesOfKind(NodeKind kind) const;

    /** @return the number of nodes in the subtree rooted at id. */
    int subtreeSize(int id) const;

    /** Preorder visit (parent before children). */
    void visitPreorder(const std::function<void(int)>& fn) const;

    /** Render as an s-expression (tests / debugging). */
    std::string toSExpression() const;

    /** Render as Graphviz DOT. */
    std::string toDot() const;

  private:
    friend AstDigest digestAst(const Ast& ast);

    /**
     * digestAst's memo. Readers that race to fill it store the same
     * two words, then publish them with a release store of ready_,
     * which load() pairs with an acquire. A mutator clears it with a
     * relaxed store: mutation never runs concurrently with a read.
     * Copying it (moves copy too) never throws, so Ast's implicit
     * moves stay noexcept.
     */
    class DigestMemo
    {
      public:
        DigestMemo() = default;
        DigestMemo(const DigestMemo& o) noexcept { assign(o); }
        DigestMemo&
        operator=(const DigestMemo& o) noexcept
        {
            assign(o);
            return *this;
        }

        /** @return whether a digest is memoized; if so, into *out. */
        bool
        load(AstDigest* out) const noexcept
        {
            if (!ready_.load(std::memory_order_acquire))
                return false;
            out->lo = lo_.load(std::memory_order_relaxed);
            out->hi = hi_.load(std::memory_order_relaxed);
            return true;
        }

        void
        store(const AstDigest& d) const noexcept
        {
            lo_.store(d.lo, std::memory_order_relaxed);
            hi_.store(d.hi, std::memory_order_relaxed);
            ready_.store(true, std::memory_order_release);
        }

        void
        clear() noexcept
        {
            ready_.store(false, std::memory_order_relaxed);
        }

      private:
        void
        assign(const DigestMemo& o) noexcept
        {
            AstDigest d;
            if (o.load(&d))
                store(d);
            else
                clear();
        }

        mutable std::atomic<std::uint64_t> lo_{0};
        mutable std::atomic<std::uint64_t> hi_{0};
        mutable std::atomic<bool> ready_{false};
    };

    std::vector<AstNode> nodes_;
    DigestMemo digest_;
};

} // namespace ccsa

#endif // CCSA_AST_AST_HH
