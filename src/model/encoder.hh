/**
 * @file
 * Code encoders: deep representation learners mapping an AST to a
 * fixed-size latent vector z (paper §III-A, F : P -> Z). Three
 * implementations: the proposed tree-LSTM, the GCN baseline the paper
 * compares against, and a sequential token-LSTM representing the
 * related-work approach of flattening code order.
 */

#ifndef CCSA_MODEL_ENCODER_HH
#define CCSA_MODEL_ENCODER_HH

#include <memory>

#include "ast/ast.hh"
#include "model/config.hh"
#include "model/subtree_store.hh"
#include "nn/embedding.hh"
#include "nn/gcn.hh"
#include "nn/lstm.hh"
#include "nn/tree_lstm.hh"

namespace ccsa
{

/** Maps ASTs to latent vectors; owns the node-embedding table. */
class CodeEncoder : public nn::Module
{
  public:
    /** Encode a pruned AST into a (1 x outputDim) latent vector. */
    virtual ag::Var encode(const Ast& ast) const = 0;

    /**
     * Encode a batch of ASTs (non-null, borrowed) into one latent
     * vector each, in input order. The default loops encode();
     * structure-batched encoders override it to share work across
     * the whole batch. Results per tree are identical to encode().
     */
    virtual std::vector<ag::Var>
    encodeMany(const std::vector<const Ast*>& asts) const;

    /**
     * encodeMany() backed by a subtree-state store. A tape-free
     * uni-directional tree-LSTM reads the states of subtrees the
     * store already holds instead of computing them, inserts the
     * ones it computes, and adds where its nodes came from to
     * *reuse (may be null). Every other encoder ignores both. The
     * results equal encodeMany() bitwise, whatever the store holds.
     */
    virtual std::vector<ag::Var>
    encodeManyWithStore(const std::vector<const Ast*>& asts,
                        SubtreeStateStore& store,
                        SubtreeReuse* reuse) const;

    /** @return dimensionality d of the latent space. */
    virtual int outputDim() const = 0;

    /** @return the node-kind embedding table (Fig. 7a analysis). */
    virtual const nn::Embedding& embedding() const = 0;
};

/**
 * Tree-LSTM encoder: root hidden state is the code representation.
 *
 * Tape-free (InferenceScope) forest encodes of the uni-directional
 * stack are hash-consed: one iterative post-order walk gives every
 * node a 128-bit Merkle digest of (kind, child count, ordered child
 * digests), the forest collapses to a DAG of distinct subtrees, and
 * each distinct subtree not already in the optional store is
 * computed once in the level-batched wavefront. Since an upward
 * node's states depend on its subtree alone, every output is
 * bitwise what the full encode gives. Taped encodes, and the Bi and
 * Alternating stacks (whose downward passes make states depend on
 * ancestors), run every node through encodeForestRoots().
 */
class TreeLstmEncoder : public CodeEncoder
{
  public:
    TreeLstmEncoder(const EncoderConfig& cfg, Rng& rng);

    ag::Var encode(const Ast& ast) const override;

    /**
     * Forest-batched override: hash-consed as described above when
     * it applies, else encodeForestRoots().
     */
    std::vector<ag::Var>
    encodeMany(const std::vector<const Ast*>& asts) const override;

    std::vector<ag::Var>
    encodeManyWithStore(const std::vector<const Ast*>& asts,
                        SubtreeStateStore& store,
                        SubtreeReuse* reuse) const override;

    /**
     * Every node of every tree through one embedding gather and one
     * level-batched wavefront, with no hash-consing: the taped path,
     * the fallback for Bi/Alternating, and the baseline the
     * hash-consed encode is benchmarked against.
     */
    std::vector<ag::Var>
    encodeForestRoots(const std::vector<const Ast*>& asts) const;

    int outputDim() const override { return lstm_.outputDim(); }
    const nn::Embedding& embedding() const override { return embed_; }
    std::vector<nn::Parameter*> parameters() override;

    /** Per-node hidden states (Fig. 7 / diagnostics). */
    std::vector<ag::Var> encodeNodes(const Ast& ast) const;

    /** The tree-LSTM stack (oracle tests). */
    const nn::TreeLstm& treeLstm() const { return lstm_; }

  private:
    /** @return whether tape-free hash-consing applies right now. */
    bool hashConsing() const;

    /** The hash-consed forest encode (store may be null). */
    std::vector<ag::Var>
    encodeHashConsed(const std::vector<const Ast*>& asts,
                     SubtreeStateStore* store,
                     SubtreeReuse* reuse) const;

    nn::Embedding embed_;
    nn::TreeLstm lstm_;
};

/** GCN encoder with mean-pool readout (paper §V-B baseline). */
class GcnEncoder : public CodeEncoder
{
  public:
    GcnEncoder(const EncoderConfig& cfg, Rng& rng);

    ag::Var encode(const Ast& ast) const override;
    int outputDim() const override { return gcn_.outputDim(); }
    const nn::Embedding& embedding() const override { return embed_; }
    std::vector<nn::Parameter*> parameters() override;

  private:
    nn::Embedding embed_;
    nn::GcnStack gcn_;
};

/**
 * Sequential LSTM over the preorder kind sequence: the related-work
 * style baseline (Cummins et al.) that discards tree structure.
 */
class TokenLstmEncoder : public CodeEncoder
{
  public:
    TokenLstmEncoder(const EncoderConfig& cfg, Rng& rng);

    ag::Var encode(const Ast& ast) const override;
    int outputDim() const override { return cell_.hiddenDim(); }
    const nn::Embedding& embedding() const override { return embed_; }
    std::vector<nn::Parameter*> parameters() override;

  private:
    nn::Embedding embed_;
    nn::LstmCell cell_;
};

/** Factory over EncoderConfig::kind. */
std::unique_ptr<CodeEncoder> makeEncoder(const EncoderConfig& cfg,
                                         Rng& rng);

} // namespace ccsa

#endif // CCSA_MODEL_ENCODER_HH
