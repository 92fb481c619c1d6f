/**
 * @file
 * The seam between the hash-consed tree-LSTM encode and whatever keeps
 * subtree states between calls. In an upward-only (Uni) tree-LSTM
 * stack a node's (h, c) at every layer is a pure function of its
 * subtree, so a subtree identified by a Merkle digest of (kind, child
 * count, ordered child digests) can be computed once and its states
 * read back by any later tree that contains it. The encoder only sees
 * this interface; the serving cache implements it (serve/
 * encoding_cache.hh), so the model layer stays free of serving types.
 */

#ifndef CCSA_MODEL_SUBTREE_STORE_HH
#define CCSA_MODEL_SUBTREE_STORE_HH

#include <cstddef>
#include <cstdint>

#include "ast/ast.hh"

namespace ccsa
{

/**
 * Exact fp32 states of whole subtrees keyed by Merkle digest. A state
 * block is, for every layer in order, the node's hidden row then its
 * cell row: 2 * layers * hidden floats. Implementations must be safe
 * to call from several encoding threads at once.
 */
class SubtreeStateStore
{
  public:
    virtual ~SubtreeStateStore() = default;

    /** Copy the `count` floats stored for `digest` into `out`.
     * @return false (out untouched) when absent. */
    virtual bool lookup(const AstDigest& digest, float* out,
                        std::size_t count) = 0;

    /** Store `count` floats for `digest` (overwrites). */
    virtual void insert(const AstDigest& digest, const float* states,
                        std::size_t count) = 0;
};

/**
 * Where the nodes of a hash-consed encode came from. Every node of
 * every encoded tree is counted once: computed (a distinct subtree
 * run through the cell), covered by a state read from the store, or
 * a repeat of a subtree already computed or read in the same call.
 */
struct SubtreeReuse
{
    std::uint64_t nodes = 0;
    std::uint64_t computed = 0;
    std::uint64_t fromStore = 0;

    std::uint64_t deduped() const { return nodes - computed - fromStore; }

    SubtreeReuse&
    operator+=(const SubtreeReuse& o)
    {
        nodes += o.nodes;
        computed += o.computed;
        fromStore += o.fromStore;
        return *this;
    }
};

} // namespace ccsa

#endif // CCSA_MODEL_SUBTREE_STORE_HH
