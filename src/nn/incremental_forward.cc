#include "nn/incremental_forward.h"

#include "nn/composite.h"
#include "tensor/tensor_ops.h"

namespace qcore {

IncrementalForward::IncrementalForward(
    Layer* root, const Tensor& x, const std::vector<Layer*>& mutable_leaves)
    : x_(x) {
  QCORE_CHECK(root != nullptr);
  Build(root, kNoParent);
  for (Layer* leaf : mutable_leaves) {
    auto it = leaf_node_.find(leaf);
    QCORE_CHECK_MSG(it != leaf_node_.end(), "mutable leaf not in the model");
    for (size_t n = it->second; n != kNoParent; n = nodes_[n].parent) {
      nodes_[n].holds_mutable = true;
    }
  }
  for (const Node& node : nodes_) {
    const std::vector<size_t>& kids = node.children;
    for (size_t i = 0; i < kids.size(); ++i) {
      bool reread = false;
      if (node.kind == Kind::kSequential) {
        reread = i + 1 < kids.size() && nodes_[kids[i + 1]].holds_mutable;
      } else {
        for (size_t j = 0; j < kids.size(); ++j) {
          if (j != i && nodes_[kids[j]].holds_mutable) reread = true;
        }
      }
      nodes_[kids[i]].keep = reread;
    }
  }
  nodes_[0].keep = true;  // the logits Evaluate() returns
}

size_t IncrementalForward::Build(Layer* layer, size_t parent) {
  const size_t id = nodes_.size();
  nodes_.emplace_back();
  nodes_[id].layer = layer;
  nodes_[id].parent = parent;
  // Build() appends the subtrees to nodes_, so collect the children here
  // rather than through a reference into it.
  std::vector<size_t> children;
  Kind kind = Kind::kLeaf;
  if (auto* residual = dynamic_cast<Residual*>(layer)) {
    kind = Kind::kResidual;
    children.push_back(Build(residual->body(), id));
    if (residual->shortcut() != nullptr) {
      children.push_back(Build(residual->shortcut(), id));
    }
  } else {
    if (dynamic_cast<Sequential*>(layer) != nullptr) {
      kind = Kind::kSequential;
    } else if (dynamic_cast<ParallelConcat*>(layer) != nullptr) {
      kind = Kind::kConcat;
    }
    layer->ForEachChild([&](Layer* child) {
      QCORE_CHECK_MSG(kind != Kind::kLeaf,
                      "IncrementalForward: unknown composite layer");
      children.push_back(Build(child, id));
    });
    if (kind == Kind::kLeaf) leaf_node_[layer] = id;
  }
  nodes_[id].kind = kind;
  nodes_[id].children = std::move(children);
  return id;
}

void IncrementalForward::MarkDirty(Layer* leaf) {
  auto it = leaf_node_.find(leaf);
  QCORE_CHECK_MSG(
      it != leaf_node_.end() && nodes_[it->second].holds_mutable,
      "MarkDirty on a leaf not declared mutable");
  // A dirty node's ancestors are dirty, so the walk stops at the first one.
  for (size_t n = it->second; n != kNoParent && !nodes_[n].dirty;
       n = nodes_[n].parent) {
    nodes_[n].dirty = true;
  }
}

const Tensor& IncrementalForward::Evaluate() {
  if (nodes_[0].dirty) nodes_[0].output = Run(0, x_, /*new_input=*/false);
  return nodes_[0].output;
}

const Tensor& IncrementalForward::ChildOutput(size_t id, const Tensor& in,
                                              bool new_input,
                                              Tensor* scratch) {
  Node& node = nodes_[id];
  if (!new_input && !node.dirty) {
    QCORE_CHECK(node.keep);
    return node.output;
  }
  Tensor& out = node.keep ? node.output : *scratch;
  out = Tensor();  // stale: free it before the rerun allocates
  out = Run(id, in, new_input);
  return out;
}

Tensor IncrementalForward::Run(size_t id, const Tensor& in, bool new_input) {
  Node& node = nodes_[id];
  node.dirty = false;
  const std::vector<size_t>& kids = node.children;
  switch (node.kind) {
    case Kind::kLeaf:
      return node.layer->Forward(in, /*training=*/false);
    case Kind::kSequential: {
      // Children before the first dirty one saw the same input and
      // parameters last time: start from the kept output of the one before.
      size_t first = 0;
      while (!new_input && first < kids.size() && !nodes_[kids[first]].dirty) {
        ++first;
      }
      const Tensor* h = &in;
      if (first > 0) {
        QCORE_CHECK(nodes_[kids[first - 1]].keep);
        h = &nodes_[kids[first - 1]].output;
      }
      Tensor scratch;
      for (size_t i = first; i < kids.size(); ++i) {
        Tensor next;
        h = &ChildOutput(kids[i], *h, new_input || i > first, &next);
        if (h == &next) {
          scratch = std::move(next);
          h = &scratch;
        }
      }
      return h == &scratch ? std::move(scratch) : *h;
    }
    case Kind::kResidual: {
      Tensor body_scratch, shortcut_scratch;
      const Tensor& main = ChildOutput(kids[0], in, new_input, &body_scratch);
      const Tensor& skip =
          kids.size() > 1
              ? ChildOutput(kids[1], in, new_input, &shortcut_scratch)
              : in;
      QCORE_CHECK_MSG(main.SameShape(skip),
                      "residual body/shortcut shape mismatch");
      if (&main != &body_scratch) return Add(main, skip);  // body's is kept
      AddInPlace(&body_scratch, skip);
      return body_scratch;
    }
    case Kind::kConcat: {
      std::vector<Tensor> scratch(kids.size());
      std::vector<const Tensor*> parts;
      for (size_t i = 0; i < kids.size(); ++i) {
        parts.push_back(&ChildOutput(kids[i], in, new_input, &scratch[i]));
      }
      return ConcatChannels(parts);
    }
  }
  return Tensor();
}

}  // namespace qcore
