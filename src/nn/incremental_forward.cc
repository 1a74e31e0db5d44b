#include "nn/incremental_forward.h"

#include <algorithm>

#include "nn/batchnorm.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/layers.h"

namespace qcore {

IncrementalForward::IncrementalForward(
    Layer* root, const Tensor& x, const std::vector<Layer*>& mutable_leaves,
    Formula formula)
    : x_(x), formula_(formula) {
  QCORE_CHECK(root != nullptr);
  nodes_.reserve(64);  // every zoo model; more only grows the vector
  Build(root, kNone, mutable_leaves);
  for (Layer* leaf : mutable_leaves) {
    QCORE_CHECK_MSG(std::any_of(mutable_node_.begin(), mutable_node_.end(),
                                [&](const auto& e) { return e.first == leaf; }),
                    "mutable leaf not in the model");
  }
  for (const auto& [leaf, id] : mutable_node_) {
    for (size_t n = id; n != kNone; n = nodes_[n].parent) {
      nodes_[n].holds_mutable = true;
    }
  }
  // Parents precede their children in nodes_, so a node's own keep is
  // final when its children's are set.
  nodes_[0].keep = true;  // the logits Evaluate() returns
  for (Node& node : nodes_) {
    for (size_t c = node.first_child; c != kNone; c = nodes_[c].next_sibling) {
      bool reread = false;
      if (node.kind == Kind::kSequential) {
        const size_t next = nodes_[c].next_sibling;
        reread = next != kNone && nodes_[next].holds_mutable;
      } else if (node.kind == Kind::kResidual) {
        const size_t other =
            c == node.first_child ? nodes_[c].next_sibling : node.first_child;
        reread = other != kNone && nodes_[other].holds_mutable;
      } else if (nodes_[c].holds_mutable) {
        node.keep = true;  // a concat whose branch reruns alone
      }
      nodes_[c].keep = reread;
    }
    // A Sequential's result is its last child's.
    if (node.kind == Kind::kSequential && node.keep) {
      nodes_[node.last_child].keep = true;
    }
  }
  BuildEpilogues();
}

size_t IncrementalForward::Build(Layer* layer, size_t parent,
                                 const std::vector<Layer*>& mutable_leaves) {
  const size_t id = nodes_.size();
  nodes_.emplace_back();
  nodes_[id].layer = layer;
  nodes_[id].parent = parent;
  bool composite = false;
  layer->ForEachChild([&composite](Layer*) { composite = true; });
  Kind kind = Kind::kLeaf;
  if (!composite) {
    if (dynamic_cast<ConvLayer*>(layer) != nullptr) kind = Kind::kConv;
    if (formula_ == Formula::kFrozenTraining &&
        dynamic_cast<BatchNorm*>(layer) != nullptr) {
      kind = Kind::kFrozenBatchNorm;
    }
    if (std::find(mutable_leaves.begin(), mutable_leaves.end(), layer) !=
        mutable_leaves.end()) {
      mutable_node_.emplace_back(layer, id);
    }
  } else if (dynamic_cast<Sequential*>(layer) != nullptr) {
    kind = Kind::kSequential;
  } else if (dynamic_cast<Residual*>(layer) != nullptr) {
    kind = Kind::kResidual;
  } else {
    QCORE_CHECK_MSG(dynamic_cast<ParallelConcat*>(layer) != nullptr,
                    "IncrementalForward: unknown composite layer");
    kind = Kind::kConcat;
  }
  nodes_[id].kind = kind;
  if (!composite) return id;
  // Build() appends the subtrees to nodes_, so nodes are reached by index
  // rather than through a reference into it.
  Scope scope{id, &mutable_leaves};
  layer->ForEachChild(
      [this, &scope](Layer* child) { AddChild(&scope, child); });
  nodes_[id].channels = scope.channels;
  return id;
}

void IncrementalForward::AddChild(Scope* scope, Layer* layer) {
  const std::vector<Layer*>& mutable_leaves = *scope->mutable_leaves;
  const Kind kind = nodes_[scope->id].kind;
  // Whether `layer`, the one after node `prev` in a Sequential, runs fused
  // into it: BatchNorm/ReLU after a conv or a concat (an epilogue), one
  // ReLU after a residual (its join). A mutable layer stays a node.
  if (kind == Kind::kSequential && scope->prev != kNone) {
    Node& prev = nodes_[scope->prev];
    const bool relu = dynamic_cast<Relu*>(layer) != nullptr;
    const bool fuses =
        prev.num_fused < kMaxFused &&
        std::find(mutable_leaves.begin(), mutable_leaves.end(), layer) ==
            mutable_leaves.end() &&
        (prev.kind == Kind::kResidual
             ? relu && prev.num_fused == 0
             : (prev.kind == Kind::kConv || prev.kind == Kind::kConcat) &&
                   (relu || dynamic_cast<BatchNorm*>(layer) != nullptr));
    if (fuses) {
      prev.fused[prev.num_fused++] = layer;
      return;
    }
  }
  const size_t child = Build(layer, scope->id, mutable_leaves);
  if (scope->prev == kNone) {
    nodes_[scope->id].first_child = child;
  } else {
    nodes_[scope->prev].next_sibling = child;
  }
  nodes_[scope->id].last_child = scope->prev = child;
  if (kind != Kind::kConcat) return;
  size_t tail = child;
  while (nodes_[tail].kind == Kind::kSequential) {
    tail = nodes_[tail].last_child;
  }
  QCORE_CHECK_MSG(nodes_[tail].kind == Kind::kConv,
                  "ParallelConcat eval: each branch must end in a conv");
  nodes_[tail].concat = scope->id;
  nodes_[tail].channel_offset = scope->channels;
  scope->channels +=
      static_cast<ConvLayer*>(nodes_[tail].layer)->out_channels();
}

void IncrementalForward::BuildEpilogues() {
  // Each fused BatchNorm gets its terms once, even where every branch of a
  // concat runs it on its own slice. Sized first: the epilogues point into
  // affine_.
  const bool eval = formula_ == Formula::kEval;
  const int arrays = eval ? 2 : 4;
  size_t floats = 0;
  for (const Node& node : nodes_) {
    for (int i = 0; i < node.num_fused; ++i) {
      if (const auto* bn = dynamic_cast<const BatchNorm*>(node.fused[i])) {
        floats += static_cast<size_t>(arrays * bn->channels());
      }
    }
  }
  affine_.resize(floats);
  // A branch's conv follows its concat in nodes_: walking backwards
  // appends the conv's own layers to its epilogue before the concat's.
  float* next = affine_.data();
  for (size_t id = nodes_.size(); id-- > 0;) {
    const Node& node = nodes_[id];
    if (node.kind != Kind::kConv && node.kind != Kind::kConcat) continue;
    const int64_t channels =
        node.kind == Kind::kConcat
            ? node.channels
            : static_cast<const ConvLayer*>(node.layer)->out_channels();
    for (int i = 0; i < node.num_fused; ++i) {
      const auto* bn = dynamic_cast<const BatchNorm*>(node.fused[i]);
      const float* terms = nullptr;
      if (bn != nullptr) {
        QCORE_CHECK_EQ(bn->channels(), channels);
        if (eval) {
          bn->EvalScaleShift(next, next + channels);
        } else {
          bn->FrozenTerms(next, next + channels, next + 2 * channels,
                          next + 3 * channels);
        }
        terms = next;
        next += arrays * channels;
      }
      // A conv's own layers cover its channels; a concat's, from each
      // branch's first channel in the concat output.
      auto add = [&](Node* conv, int64_t first) {
        const auto array = [&](int k) { return terms + k * channels + first; };
        if (terms == nullptr) {
          conv->epilogue.AddRelu();
        } else if (eval) {
          conv->epilogue.AddScaleShift(array(0), array(1));
        } else {
          conv->epilogue.AddNormalize(array(0), array(1), array(2), array(3));
        }
      };
      if (node.kind == Kind::kConv) {
        add(&nodes_[id], 0);
        continue;
      }
      for (size_t c = id + 1; c < nodes_.size(); ++c) {
        if (nodes_[c].concat == id) add(&nodes_[c], nodes_[c].channel_offset);
      }
    }
  }
}

size_t IncrementalForward::NodeOf(const Layer* leaf) const {
  auto it = std::find_if(
      mutable_node_.begin(), mutable_node_.end(),
      [&](const auto& entry) { return entry.first == leaf; });
  QCORE_CHECK_MSG(it != mutable_node_.end(), "leaf not declared mutable");
  return it->second;
}

void IncrementalForward::MarkDirty(Layer* leaf) {
  // A dirty node's ancestors are dirty, so the walk stops at the first one.
  for (size_t n = NodeOf(leaf); n != kNone && !nodes_[n].dirty;
       n = nodes_[n].parent) {
    nodes_[n].dirty = true;
  }
}

const Tensor& IncrementalForward::Evaluate() {
  if (nodes_[0].dirty) Run(0, x_, /*new_input=*/false);
  return Result(0);
}

const Tensor& IncrementalForward::Input(const Layer* leaf) const {
  QCORE_CHECK_MSG(!nodes_[0].dirty, "Input before Evaluate");
  // A node's input is its Sequential predecessor's result, or else its
  // parent's input; the root's is x.
  for (size_t id = NodeOf(leaf);; id = nodes_[id].parent) {
    const size_t parent = nodes_[id].parent;
    if (parent == kNone) return x_;
    if (nodes_[parent].kind != Kind::kSequential ||
        nodes_[parent].first_child == id) {
      continue;
    }
    size_t prev = nodes_[parent].first_child;
    while (nodes_[prev].next_sibling != id) prev = nodes_[prev].next_sibling;
    QCORE_CHECK(nodes_[Owner(prev)].keep);
    return Result(prev);
  }
}

size_t IncrementalForward::Owner(size_t id) const {
  while (nodes_[id].kind == Kind::kSequential) id = nodes_[id].last_child;
  return id;
}

void IncrementalForward::Release(size_t id) {
  Node& owner = nodes_[Owner(id)];
  if (!owner.keep) owner.output = Tensor();
}

const Tensor& IncrementalForward::Output(size_t id, const Tensor& in,
                                         bool new_input) {
  if (new_input || nodes_[id].dirty) {
    Run(id, in, new_input);
  } else {
    QCORE_CHECK(nodes_[Owner(id)].keep);
  }
  return Result(id);
}

void IncrementalForward::Run(size_t id, const Tensor& in, bool new_input) {
  Node& node = nodes_[id];
  node.dirty = false;
  switch (node.kind) {
    case Kind::kLeaf:
      node.output = Tensor();  // stale: free it before the rerun allocates
      node.output = node.layer->Forward(in, /*training=*/false);
      return;
    case Kind::kConv:
      RunConv(&node, in);
      return;
    case Kind::kFrozenBatchNorm:
      node.output = Tensor();
      node.output =
          static_cast<const BatchNorm*>(node.layer)->FrozenForward(in);
      return;
    case Kind::kSequential: {
      // Children before the first dirty one saw the same input and
      // parameters last time: start from the kept output of the one before.
      size_t before = kNone, first = node.first_child;
      while (!new_input && first != kNone && !nodes_[first].dirty) {
        before = first;
        first = nodes_[first].next_sibling;
      }
      QCORE_CHECK(first != kNone);
      const Tensor* h = &in;
      if (before != kNone) {
        QCORE_CHECK(nodes_[Owner(before)].keep);
        h = &Result(before);
      }
      for (size_t c = first; c != kNone; c = nodes_[c].next_sibling) {
        Run(c, *h, new_input || c != first);
        if (c != first) Release(before);
        h = &Result(c);
        before = c;
      }
      return;
    }
    case Kind::kResidual: {
      const size_t body = node.first_child;
      const size_t shortcut = nodes_[body].next_sibling;
      const Tensor& main = Output(body, in, new_input);
      const Tensor& skip =
          shortcut != kNone ? Output(shortcut, in, new_input) : in;
      QCORE_CHECK_MSG(main.SameShape(skip),
                      "residual body/shortcut shape mismatch");
      const bool relu = node.num_fused > 0;
      if (nodes_[Owner(body)].keep) {
        node.output = Tensor();
        node.output = Tensor(main.shape());
        AddInto(main.data(), skip.data(), main.size(), relu,
                node.output.data());
      } else {
        node.output = Take(body);  // the body's output, joined in place
        AddInto(node.output.data(), skip.data(), node.output.size(), relu,
                node.output.data());
      }
      if (shortcut != kNone) Release(shortcut);
      return;
    }
    case Kind::kConcat:
      // Each branch that reruns writes its own slice of node.output; the
      // first to run allocates it.
      for (size_t c = node.first_child; c != kNone;
           c = nodes_[c].next_sibling) {
        if (new_input || nodes_[c].dirty) Run(c, in, new_input);
      }
      QCORE_CHECK(node.output.size() > 0);
      return;
  }
}

void IncrementalForward::RunConv(Node* node, const Tensor& in) {
  const auto* conv = static_cast<const ConvLayer*>(node->layer);
  std::vector<int64_t> shape = conv->OutputShape(in);
  Tensor* out = &node->output;
  if (node->concat == kNone) {
    *out = Tensor();  // stale: free it before the rerun allocates
    *out = Tensor(shape);
  } else {
    out = &nodes_[node->concat].output;
    shape[1] = nodes_[node->concat].channels;
    if (out->size() == 0) *out = Tensor(shape);
    QCORE_CHECK_MSG(out->shape() == shape,
                    "ParallelConcat branches disagree on a non-channel axis");
  }
  conv->ForwardInto(in, node->channel_offset, shape[1],
                    node->epilogue.empty() ? nullptr : &node->epilogue,
                    out->data());
}

Tensor EvalForward(Layer* root, const Tensor& x) {
  IncrementalForward plan(root, x, {});
  (void)plan.Evaluate();
  return plan.Take(0);
}

}  // namespace qcore
