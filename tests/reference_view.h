#ifndef CSXA_TESTS_REFERENCE_VIEW_H_
#define CSXA_TESTS_REFERENCE_VIEW_H_

// A deliberately naive statement of the paper's Section 3 semantics over a
// DOM, used as an independent oracle for the streaming evaluator. It shares
// only the XPath AST (and its comparison coercion, xpath::EvalCompare) with
// access::RuleEvaluator: no automata, no pending states, no buffering.
//
//  - Each rule's expression is evaluated over the whole document, so every
//    predicate is decided with full knowledge.
//  - A rule applies to the nodes it selects and propagates to their
//    subtrees. At each node the rules whose target is the deepest
//    ancestor-or-self carrying any target decide it; denial wins ties; a
//    node no rule reaches is denied (closed world).
//  - The view keeps every permitted element with its text, plus the tags
//    (never the text) of denied elements that lead to a permitted one.

#include <string>
#include <unordered_set>
#include <vector>

#include "access/access_rule.h"
#include "xml/node.h"
#include "xml/serializer.h"
#include "xpath/ast.h"

namespace csxa::testing {

namespace reference_internal {

using NodeSet = std::unordered_set<const xml::Node*>;

inline void AddDescendants(const xml::Node& n, NodeSet* out) {
  for (const auto& c : n.children()) {
    if (!c->is_element()) continue;
    out->insert(c.get());
    AddDescendants(*c, out);
  }
}

/// Elements reached from `ctx` along `axis`. A null `ctx` is the document
/// node, whose only child is `root`.
inline void AddAxis(xpath::Axis axis, const xml::Node* ctx,
                    const xml::Node& root, NodeSet* out) {
  if (ctx == nullptr) {
    out->insert(&root);
    if (axis == xpath::Axis::kDescendant) AddDescendants(root, out);
    return;
  }
  if (axis == xpath::Axis::kDescendant) {
    AddDescendants(*ctx, out);
    return;
  }
  for (const auto& c : ctx->children()) {
    if (c->is_element()) out->insert(c.get());
  }
}

inline NodeSet Select(const std::vector<xpath::Step>& steps, NodeSet ctx,
                      const xml::Node& root);

inline bool Holds(const xpath::Predicate& pred, const xml::Node& node,
                  const xml::Node& root) {
  for (const xml::Node* m : Select(pred.steps, {&node}, root)) {
    if (pred.op == xpath::CompareOp::kExists ||
        xpath::EvalCompare(pred.op, m->StringValue(), pred.literal)) {
      return true;
    }
  }
  return false;
}

/// Nodes selected by `steps` from the context nodes `ctx` (a null entry is
/// the document node).
inline NodeSet Select(const std::vector<xpath::Step>& steps, NodeSet ctx,
                      const xml::Node& root) {
  for (const xpath::Step& step : steps) {
    NodeSet reached, next;
    for (const xml::Node* c : ctx) AddAxis(step.axis, c, root, &reached);
    for (const xml::Node* n : reached) {
      if (!step.Matches(n->tag())) continue;
      bool ok = true;
      for (const xpath::Predicate& p : step.predicates) {
        if (!Holds(p, *n, root)) {
          ok = false;
          break;
        }
      }
      if (ok) next.insert(n);
    }
    ctx = std::move(next);
  }
  return ctx;
}

struct Labeling {
  NodeSet permit_targets, deny_targets;
  NodeSet permitted;  ///< Elements whose decision is permit.
  NodeSet kept;       ///< Elements in the view (permitted or leading to one).
};

/// Top-down: a node carrying a target is decided by its own targets (deny
/// wins ties), any other node inherits its parent's decision.
inline bool Label(const xml::Node& n, bool inherited, Labeling* l) {
  bool permit = inherited;
  if (l->deny_targets.count(&n) != 0) {
    permit = false;
  } else if (l->permit_targets.count(&n) != 0) {
    permit = true;
  }
  if (permit) l->permitted.insert(&n);
  bool keep = permit;
  for (const auto& c : n.children()) {
    if (c->is_element() && Label(*c, permit, l)) keep = true;
  }
  if (keep) l->kept.insert(&n);
  return keep;
}

inline void Emit(const xml::Node& n, int depth, const Labeling& l,
                 xml::SerializingHandler* out) {
  if (l.kept.count(&n) == 0) return;
  const bool permit = l.permitted.count(&n) != 0;
  out->OnOpen(n.tag(), depth);
  for (const auto& c : n.children()) {
    if (c->is_text()) {
      if (permit) out->OnValue(c->value(), depth + 1);
    } else {
      Emit(*c, depth + 1, l, out);
    }
  }
  out->OnClose(n.tag(), depth);
}

}  // namespace reference_internal

/// The serialized authorized view of `root` under `rules` (already selected
/// for the subject), computed from the definitions alone.
inline std::string ReferenceView(const xml::Node& root,
                                 const std::vector<access::AccessRule>& rules) {
  using namespace reference_internal;  // NOLINT
  Labeling l;
  for (const access::AccessRule& r : rules) {
    NodeSet& into = r.sign == access::Sign::kDeny ? l.deny_targets
                                                  : l.permit_targets;
    for (const xml::Node* t : Select(r.path.steps, {nullptr}, root)) {
      into.insert(t);
    }
  }
  Label(root, /*inherited=*/false, &l);
  xml::SerializingHandler out;
  Emit(root, 1, l, &out);
  return out.output();
}

}  // namespace csxa::testing

#endif  // CSXA_TESTS_REFERENCE_VIEW_H_
