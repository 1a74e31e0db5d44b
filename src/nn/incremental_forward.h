// Eval-mode forward for a model whose parameters change one leaf layer at a
// time — the validation of bit-flip proposals (core/bitflip, Alg. 3). After
// a change it reruns only the layers the change can reach: the changed
// leaf, the rest of each enclosing Sequential after it, and the join of each
// enclosing Residual or ParallelConcat. Every other layer (earlier layers,
// sibling branches, the other side of a residual) reuses the output it
// produced last time.
//
// The result is exact, not approximate: a layer's eval-mode Forward is a
// pure function of its input, its parameters and the BatchNorm running
// statistics, so a reused output is the one a full forward would compute,
// and Evaluate() is bit-identical to root->Forward(x, /*training=*/false).
//
// Memory: a layer's output is kept only if a later evaluation re-reads it.
// In a Sequential that is child i's output when child i+1 holds a mutable
// leaf (it is that child's input). In a Residual or ParallelConcat it is a
// child's output when another child holds one (it is joined unchanged).
// Everything is freed with the object.
#ifndef QCORE_NN_INCREMENTAL_FORWARD_H_
#define QCORE_NN_INCREMENTAL_FORWARD_H_

#include <map>
#include <vector>

#include "nn/layer.h"

namespace qcore {

class IncrementalForward {
 public:
  // `root` and `x` must outlive this object. Only the parameters of
  // `mutable_leaves` (leaf layers under `root`) may change between
  // evaluations; every other parameter, every BatchNorm running statistic
  // and the tree's structure stay fixed. Composites must be Sequential,
  // Residual or ParallelConcat.
  IncrementalForward(Layer* root, const Tensor& x,
                     const std::vector<Layer*>& mutable_leaves);

  // Records that `leaf` (a mutable leaf) changed since the last Evaluate().
  // Undoing a change is a change too: the outputs kept on the leaf's path
  // were computed with the parameters being undone.
  void MarkDirty(Layer* leaf);

  // root->Forward(x, false) under the current parameters. The first call
  // runs every layer; a later one reruns only the layers downstream of the
  // leaves marked dirty since the call before. The reference stays valid
  // until the next call.
  const Tensor& Evaluate();

 private:
  static constexpr size_t kNoParent = static_cast<size_t>(-1);
  enum class Kind { kLeaf, kSequential, kResidual, kConcat };
  struct Node {
    Kind kind = Kind::kLeaf;
    Layer* layer = nullptr;
    size_t parent = kNoParent;
    // Forward order; a Residual's are {body} or {body, shortcut}.
    std::vector<size_t> children;
    bool holds_mutable = false;  // a mutable leaf is in this subtree
    bool dirty = true;           // output not computed for the current params
    bool keep = false;           // `output` is re-read by a later evaluation
    Tensor output;
  };

  size_t Build(Layer* layer, size_t parent);
  // The output of node `id` on input `in`. Requires new_input or dirty.
  Tensor Run(size_t id, const Tensor& in, bool new_input);
  // A child's output: its kept one if neither its input nor a leaf under it
  // changed, else freshly run (into its `output` if kept, else *scratch).
  const Tensor& ChildOutput(size_t id, const Tensor& in, bool new_input,
                            Tensor* scratch);

  const Tensor& x_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
  std::map<const Layer*, size_t> leaf_node_;
};

}  // namespace qcore

#endif  // QCORE_NN_INCREMENTAL_FORWARD_H_
