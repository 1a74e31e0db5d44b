// The fused plan: one forward over a Sequential/Residual/ParallelConcat
// tree. It runs every eval-mode forward: a composite's Forward(x,
// /*training=*/false) — and through it serving Predict/PredictBatched,
// EvaluateAccuracy and the bit-flip net's Predict — runs it once with every
// node dirty (EvalForward), and the validation of bit-flip proposals
// (core/bitflip, Alg. 3) keeps one per trial slice and reruns it
// incrementally. Built with the frozen-training formula, it also runs the
// pass that opens each calibration round (core/continual, Alg. 4's miss
// tracking and Alg. 3's features): the output of SetBatchNormFrozen(root,
// true) and then Forward(x, /*training=*/true), bit for bit, without the
// layer caches that forward leaves; Input() hands out the inputs of the
// mutable leaves instead.
//
// Fusions, so that each activation is written once:
//  - A conv followed by BatchNorm and/or ReLU layers runs them on each
//    sample's [F, spatial] block right after that sample's GEMM
//    (ConvLayer::ForwardInto with an Epilogue).
//  - Each ParallelConcat branch's last conv writes straight into its
//    channel slice of the concat output, and the BatchNorm/ReLU layers
//    after the concat run in each branch's epilogue on that branch's
//    channels (BatchNorm is per channel, so BatchNorm of the concat is the
//    concat of the branches' normalized slices).
//  - A Residual's add and the ReLU after it run in one pass.
// Building the plan allocates two buffers (the nodes and the fused
// BatchNorms' per-channel terms, each computed once), so a one-row serving
// forward pays little for it.
// Every element sees the same operations in the same order as the
// layer-by-layer forward (LayeredEvalForward, nn/composite.h, for the eval
// formula; the layers' training Forwards with frozen BatchNorms for the
// other), so the result equals it bit for bit. The two forwards differ
// only in BatchNorm: ReLU, pooling, concat, the residual add, conv and
// Dense compute the same values in either mode.
//
// Incremental reruns: when only the parameters of declared mutable leaves
// change between evaluations, a later evaluation reruns only the layers a
// change can reach: the changed leaf, the rest of each enclosing
// Sequential after it, and the join of each enclosing Residual; in a
// ParallelConcat only the changed branch reruns, rewriting its own slice
// (already normalized) of the kept concat output. Every other layer
// reuses the output it produced last time. This is exact: a layer's output
// is a pure function of its input, its parameters and the BatchNorm
// running statistics, so a reused output is the one a full forward would
// compute.
//
// Memory: a node's output is kept only if a later evaluation re-reads it.
// In a Sequential that is child i's output when child i+1 holds a mutable
// leaf (it is that child's input); in a Residual a child's output when the
// other child holds one (it is joined unchanged); a ParallelConcat keeps
// its output when a branch holds one (its slices are updated in place).
// Everything else is freed once read, and everything with the object.
#ifndef QCORE_NN_INCREMENTAL_FORWARD_H_
#define QCORE_NN_INCREMENTAL_FORWARD_H_

#include <utility>
#include <vector>

#include "nn/epilogue.h"
#include "nn/layer.h"

namespace qcore {

class IncrementalForward {
 public:
  // How the plan runs BatchNorm: the eval formula (the folded affine), or
  // a frozen BatchNorm's training formula (see nn/batchnorm.h).
  enum class Formula { kEval, kFrozenTraining };

  // `root` and `x` must outlive this object. Only the parameters of
  // `mutable_leaves` (leaf layers under `root`) may change between
  // evaluations; every other parameter, every BatchNorm running statistic
  // and the tree's structure stay fixed. Composites must be Sequential,
  // Residual or ParallelConcat.
  IncrementalForward(Layer* root, const Tensor& x,
                     const std::vector<Layer*>& mutable_leaves,
                     Formula formula = Formula::kEval);
  // The epilogues point into affine_, so a copy would point into this
  // object's; a move takes the buffer with it.
  IncrementalForward(const IncrementalForward&) = delete;
  IncrementalForward& operator=(const IncrementalForward&) = delete;
  IncrementalForward(IncrementalForward&&) = default;

  // Records that `leaf` (a mutable leaf) changed since the last Evaluate().
  // Undoing a change is a change too: the outputs kept on the leaf's path
  // were computed with the parameters being undone.
  void MarkDirty(Layer* leaf);

  // root->Forward(x, false) under the current parameters (under the
  // frozen-training formula, the frozen training forward's output). The
  // first call runs every layer; a later one reruns only the layers
  // downstream of the leaves marked dirty since the call before. The
  // reference stays valid until the next call.
  const Tensor& Evaluate();

  // The input `leaf` (a mutable leaf) saw in the last Evaluate(), which
  // must follow every MarkDirty: x itself, or the output the keep rules
  // hold because `leaf` reads it. Valid until the next call.
  const Tensor& Input(const Layer* leaf) const;

 private:
  friend Tensor EvalForward(Layer* root, const Tensor& x);

  static constexpr size_t kNone = static_cast<size_t>(-1);
  // A conv's own fused layers and its concat's fill one epilogue.
  static constexpr int kMaxFused = Epilogue::kMaxSteps / 2;
  // A kFrozenBatchNorm is a BatchNorm the frozen-training formula runs as
  // a layer of its own (BatchNorm::FrozenForward).
  enum class Kind {
    kLeaf, kConv, kFrozenBatchNorm, kSequential, kResidual, kConcat
  };
  // Nodes sit in nodes_ in pre-order; a node's children are linked through
  // next_sibling, in forward order (a Residual's are body, then shortcut).
  struct Node {
    Kind kind = Kind::kLeaf;
    Layer* layer = nullptr;
    size_t parent = kNone;
    size_t first_child = kNone;
    size_t last_child = kNone;
    size_t next_sibling = kNone;
    // The BatchNorm/ReLU layers after a conv or concat, or the ReLU after
    // a residual, that run fused into this node.
    Layer* fused[kMaxFused] = {};
    int num_fused = 0;
    // A conv's passes: its fused layers, then its concat's on its slice.
    Epilogue epilogue;
    size_t concat = kNone;  // a conv that writes a slice of this concat
    int64_t channel_offset = 0;  // a conv's first channel in that output
    int64_t channels = 0;        // a concat's output channels
    bool holds_mutable = false;  // a mutable leaf is in this subtree
    bool dirty = true;           // output not computed for the current params
    bool keep = false;           // `output` is re-read by a later evaluation
    Tensor output;
  };

  size_t Build(Layer* layer, size_t parent,
               const std::vector<Layer*>& mutable_leaves);
  size_t NodeOf(const Layer* leaf) const;  // a mutable leaf's node
  // A composite being built: its node, its last child node so far and, for
  // a concat, the channels its branches write so far.
  struct Scope {
    size_t id;
    const std::vector<Layer*>* mutable_leaves;
    size_t prev = kNone;
    int64_t channels = 0;
  };
  // Appends `layer`, the next child of scope->id: fused into the child
  // before it, or as a new subtree.
  void AddChild(Scope* scope, Layer* layer);
  // Computes every fused BatchNorm's terms once, into affine_, and each
  // conv's epilogue from them.
  void BuildEpilogues();
  // Computes node `id` on input `in`. Requires new_input or dirty.
  void Run(size_t id, const Tensor& in, bool new_input);
  void RunConv(Node* node, const Tensor& in);
  // A child's result: kept if neither its input nor a leaf under it
  // changed, else run afresh.
  const Tensor& Output(size_t id, const Tensor& in, bool new_input);
  // The node that holds `id`'s result: a Sequential's is its last child's
  // (a Sequential node has children; an empty one is a leaf).
  size_t Owner(size_t id) const;
  const Tensor& Result(size_t id) const { return nodes_[Owner(id)].output; }
  // Frees `id`'s result unless a later evaluation re-reads it.
  void Release(size_t id);
  Tensor Take(size_t id) { return std::move(nodes_[Owner(id)].output); }

  const Tensor& x_;
  const Formula formula_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
  std::vector<std::pair<const Layer*, size_t>> mutable_node_;
  // The fused BatchNorms' per-channel terms, one array after another: scale
  // and shift (eval), or mean, inv_std, gamma and beta (frozen training).
  std::vector<float> affine_;
};

// root->Forward(x, /*training=*/false): the plan run once with every node
// dirty. The composites' eval Forward.
Tensor EvalForward(Layer* root, const Tensor& x);

}  // namespace qcore

#endif  // QCORE_NN_INCREMENTAL_FORWARD_H_
