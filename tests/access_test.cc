// Semantics tests for the streaming access-control evaluator: propagation,
// most-specific-takes-precedence, denial-takes-precedence, closed-world
// default, structure preservation, pending predicates, the
// containment-based rule-set minimization, and the per-event cost of
// deciding elements on deep chains.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "index/variants.h"
#include "pipeline/secure_pipeline.h"
#include "serve_fixtures.h"
#include "testing.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;  // NOLINT
using csxa::access::AccessRule;

/// Runs `rules_text` (for `subject`) over `xml` and returns the serialized
/// authorized view.
std::string View(const std::string& xml, const std::string& rules_text,
                 const std::string& subject = "u") {
  auto rules = access::ParseRuleList(rules_text);
  CHECK_OK(rules.status());
  if (!rules.ok()) return "<error>";
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(
      access::RulesForSubject(rules.value(), subject), &ser);
  CHECK_OK(xml::SaxParser::Parse(xml, &eval));
  CHECK_OK(eval.Finish());
  return ser.output();
}

TEST(ClosedWorldDefault) {
  // No rule reaches the document: nothing is disclosed.
  CHECK_EQ(View("<r><a>x</a></r>", ""), "");
  CHECK_EQ(View("<r><a>x</a></r>", "+ other: /r"), "");
}

TEST(GrantPropagatesToSubtree) {
  CHECK_EQ(View("<r><a>x</a><b><c>y</c></b></r>", "+ /r"),
           "<r><a>x</a><b><c>y</c></b></r>");
}

TEST(SubjectSelection) {
  CHECK_EQ(View("<r><a>x</a></r>", "+ u: /r"), "<r><a>x</a></r>");
  CHECK_EQ(View("<r><a>x</a></r>", "+ v: /r\n+ u: /r/a"), "<r><a>x</a></r>");
}

TEST(NegativeOverridesAtDeeperTarget) {
  // - /r/secret is more specific (deeper target) than + /r.
  CHECK_EQ(View("<r><pub>1</pub><secret>2</secret></r>",
                "+ /r\n- /r/secret"),
           "<r><pub>1</pub></r>");
}

TEST(PositiveRegrantBelowNegative) {
  // The paper's cascade: grant the folder, deny Admin, re-grant the name.
  CHECK_EQ(View("<r><adm><name>jane</name><ssn>123</ssn></adm>"
                "<data>d</data></r>",
                "+ /r\n- /r/adm\n+ /r/adm/name"),
           "<r><adm><name>jane</name></adm><data>d</data></r>");
}

TEST(DenialTakesPrecedenceAtEqualSpecificity) {
  CHECK_EQ(View("<r><x>v</x></r>", "+ /r/x\n- /r/x"), "");
  // Two paths targeting the same node at the same depth.
  CHECK_EQ(View("<r><x>v</x></r>", "+ /r/x\n- //x"), "");
}

TEST(StructurePreservationHidesAncestorText) {
  // The denied ancestor's tag is visible (it leads to a permitted node)
  // but its own text is not.
  CHECK_EQ(View("<r>top<a>hidden<ok>yes</ok></a></r>", "+ //ok"),
           "<r><a><ok>yes</ok></a></r>");
}

TEST(DeniedBranchFullyPruned) {
  // A denied subtree with no permitted descendant disappears entirely,
  // including its tags.
  CHECK_EQ(View("<r><keep>k</keep><drop><x>1</x></drop></r>",
                "+ /r\n- /r/drop"),
           "<r><keep>k</keep></r>");
}

TEST(WildcardStep) {
  CHECK_EQ(View("<r><a><pub>1</pub></a><b><pub>2</pub><prv>3</prv></b></r>",
                "+ /r/*/pub"),
           "<r><a><pub>1</pub></a><b><pub>2</pub></b></r>");
}

TEST(DescendantAxis) {
  CHECK_EQ(View("<r><name>n1</name><a><b><name>n2</name></b></a></r>",
                "+ //name"),
           "<r><name>n1</name><a><b><name>n2</name></b></a></r>");
  CHECK_EQ(View("<r><a><a><x>deep</x></a></a></r>", "+ /r//a/x"),
           "<r><a><a><x>deep</x></a></a></r>");
}

TEST(ExistencePredicate) {
  const char* rules = "+ /r/pat[flag]";
  CHECK_EQ(View("<r><pat><flag/><d>1</d></pat></r>", rules),
           "<r><pat><flag></flag><d>1</d></pat></r>");
  CHECK_EQ(View("<r><pat><d>1</d></pat></r>", rules), "");
}

TEST(ComparisonPredicateValueBefore) {
  const char* rules = "- //an[type = G3]/cmt\n+ /r";
  CHECK_EQ(View("<r><an><type>G3</type><cmt>x</cmt></an></r>", rules),
           "<r><an><type>G3</type></an></r>");
  CHECK_EQ(View("<r><an><type>G2</type><cmt>x</cmt></an></r>", rules),
           "<r><an><type>G2</type><cmt>x</cmt></an></r>");
}

TEST(ComparisonPredicateValueAfterStaysPending) {
  // The predicate decides only after <cmt> has been seen: the evaluator
  // must buffer and still emit in document order.
  const char* rules = "- //an[type = G3]/cmt\n+ /r";
  CHECK_EQ(View("<r><an><cmt>x</cmt><type>G3</type></an></r>", rules),
           "<r><an><type>G3</type></an></r>");
  CHECK_EQ(View("<r><an><cmt>x</cmt><type>G2</type></an></r>", rules),
           "<r><an><cmt>x</cmt><type>G2</type></an></r>");
}

TEST(NumericComparisonPredicate) {
  const char* rules = "+ //an[chol > 250]";
  CHECK_EQ(View("<r><an><chol>260</chol></an><an><chol>180</chol></an></r>",
                rules),
           "<r><an><chol>260</chol></an></r>");
}

TEST(PredicateWithPathSteps) {
  const char* rules = "+ /r/pat[ins/plan = gold]";
  CHECK_EQ(View("<r><pat><ins><plan>gold</plan></ins><d>1</d></pat></r>",
                rules),
           "<r><pat><ins><plan>gold</plan></ins><d>1</d></pat></r>");
  CHECK_EQ(View("<r><pat><ins><plan>base</plan></ins><d>1</d></pat></r>",
                rules),
           "");
}

TEST(NestedPredicate) {
  const char* rules = "+ /r/pat[ins[gold]]";
  CHECK_EQ(View("<r><pat><ins><gold/></ins><d>1</d></pat></r>", rules),
           "<r><pat><ins><gold></gold></ins><d>1</d></pat></r>");
  CHECK_EQ(View("<r><pat><ins><iron/></ins><d>1</d></pat></r>", rules), "");
}

TEST(DescendantPredicate) {
  const char* rules = "+ /r/pat[//gold]";
  CHECK_EQ(View("<r><pat><a><b><gold/></b></a></pat></r>", rules),
           "<r><pat><a><b><gold></gold></b></a></pat></r>");
  CHECK_EQ(View("<r><pat><a><b><lead/></b></a></pat></r>", rules), "");
}

TEST(PendingNegativeBlocksEarlyEmission) {
  // + /r grants <d> but a *pending* deeper denial on it must hold the
  // event back until the predicate resolves false, then emit.
  const char* rules = "+ /r\n- /r/pat[bad]/d";
  CHECK_EQ(View("<r><pat><d>v</d><x/></pat></r>", rules),
           "<r><pat><d>v</d><x></x></pat></r>");
  CHECK_EQ(View("<r><pat><d>v</d><bad/></pat></r>", rules),
           "<r><pat><bad></bad></pat></r>");
}

TEST(MultipleRulesAndDocumentOrder) {
  const char* rules =
      "+ /lib//book[price < 20]\n"
      "- /lib/shelf[restricted]//book\n";
  const char* doc =
      "<lib>"
      "<shelf><book><price>10</price></book>"
      "<book><price>30</price></book></shelf>"
      "<shelf><restricted/><book><price>5</price></book></shelf>"
      "</lib>";
  CHECK_EQ(View(doc, rules),
           "<lib><shelf><book><price>10</price></book></shelf></lib>");
}

TEST(EvaluatorStats) {
  auto rules = access::ParseRuleList("+ /r\n- /r/b");
  CHECK_OK(rules.status());
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules.take(), &ser);
  CHECK_OK(xml::SaxParser::Parse("<r><a>1</a><b>2</b></r>", &eval));
  CHECK_OK(eval.Finish());
  CHECK_EQ(eval.stats().events_in, uint64_t{8});
  CHECK_EQ(eval.stats().events_emitted, uint64_t{5});   // r, a, "1"
  CHECK_EQ(eval.stats().events_pruned, uint64_t{3});    // b, "2"
  CHECK_EQ(eval.stats().rule_hits, uint64_t{2});
}

TEST(WatcherRegistrationDeduped) {
  // //a//b[c] over <r><a><a><b>…: two descendant tokens cross the same
  // predicated step during b's open event. The spawn memo makes them share
  // one predicate instance, so b carries two hits blocked on the *same*
  // instance — each blocked event must register one watcher with it, not
  // one per hit (and a re-examination must not re-register).
  auto rules = access::ParseRuleList("+ /r\n- //a//b[c]\n");
  CHECK_OK(rules.status());
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules.take(), &ser);
  CHECK_OK(xml::SaxParser::Parse("<r><a><a><b>secret</b></a></a></r>",
                                 &eval));
  CHECK_OK(eval.Finish());
  // One shared instance, despite two tokens crossing the step.
  CHECK_EQ(eval.stats().predicates_spawned, uint64_t{1});
  // Exactly two blocked events (b's open, its text) × one instance.
  CHECK_EQ(eval.stats().watcher_subscriptions, uint64_t{2});
  // [c] never matched: the pending denial dissolves and b is disclosed.
  CHECK_EQ(ser.output(), "<r><a><a><b>secret</b></a></a></r>");
}

TEST(DecideCostDoesNotGrowWithDepth) {
  // A root grant over a spine of nested <a>, each carrying a <b> leaf
  // whose denial hangs on a predicate that resolves false when the leaf
  // closes. Deciding any node means looking past its own (false) targets
  // up to the root grant; Decide() must not rescan the whole chain per
  // call, so its steps per event stay flat from depth 64 to depth 256 —
  // both for a direct SAX pass and for a skipping TCSBR serve, whose skip
  // oracle adds its own Decide() calls on every open.
  auto rules = access::ParseRuleList("+ /r\n- //b[z]\n");
  CHECK_OK(rules.status());
  if (!rules.ok()) return;
  auto deep = [](int depth) {
    std::string xml = "<r>";
    for (int i = 0; i < depth; ++i) xml += "<a><b>v</b>";
    for (int i = 0; i < depth; ++i) xml += "</a>";
    return xml + "</r>";
  };
  auto steps_per_event = [](const access::RuleEvaluator::Stats& s) {
    return static_cast<double>(s.decide_steps) /
           static_cast<double>(s.events_in);
  };
  double direct[2] = {}, served[2] = {};
  const int depths[2] = {64, 256};
  for (int i = 0; i < 2; ++i) {
    const std::string xml = deep(depths[i]);
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(rules.value(), &ser);
    CHECK_OK(xml::SaxParser::Parse(xml, &eval));
    CHECK_OK(eval.Finish());
    CHECK_EQ(ser.output(), xml);  // Every [z] is false: all granted.
    direct[i] = steps_per_event(eval.stats());

    auto report = testing::ColdService(xml, index::Variant::kTcsbr, 256, 32)
                      ->Serve("doc", rules.value(),
                              pipeline::ServeOptions(true, UINT64_MAX));
    CHECK_OK(report.status());
    if (!report.ok()) return;
    CHECK_EQ(report.value().view, xml);
    served[i] = steps_per_event(report.value().eval);
  }
  std::printf("  decide_steps/events_in: direct %.3f -> %.3f, "
              "served %.3f -> %.3f (depth 64 -> 256)\n",
              direct[0], direct[1], served[0], served[1]);
  CHECK(direct[1] <= direct[0] * 1.05);
  CHECK(served[1] <= served[0] * 1.05);
}

TEST(RuleParsing) {
  auto r = access::ParseRule("+ doctor: /Folder//MedActs");
  CHECK_OK(r.status());
  if (r.ok()) {
    CHECK(r.value().sign == access::Sign::kPermit);
    CHECK_EQ(r.value().subject, "doctor");
    CHECK_EQ(r.value().path.ToString(), "/Folder//MedActs");
    CHECK_EQ(r.value().ToString(), "+ doctor: /Folder//MedActs");
  }
  auto bare = access::ParseRule("- /a/b");
  CHECK_OK(bare.status());
  if (bare.ok()) {
    CHECK(bare.value().sign == access::Sign::kDeny);
    CHECK_EQ(bare.value().subject, "");
  }
  CHECK(!access::ParseRule("/a/b").ok());
  CHECK(!access::ParseRule("+ ").ok());
}

std::vector<AccessRule> Rules(const std::string& text) {
  auto r = access::ParseRuleList(text);
  CHECK_OK(r.status());
  return r.ok() ? r.take() : std::vector<AccessRule>{};
}

TEST(RedundantRuleElimination) {
  // Same-sign rule with a contained node set is dropped.
  auto out = access::EliminateRedundantRules(Rules("+ //b\n+ /a/b"));
  CHECK_EQ(out.size(), size_t{1});
  if (!out.empty()) CHECK_EQ(out[0].path.ToString(), "//b");
  out = access::EliminateRedundantRules(Rules("+ /a//b\n+ /a/c/b"));
  CHECK_EQ(out.size(), size_t{1});

  // /a does NOT make /a/b redundant: they target different nodes, and the
  // deeper rule has higher specificity (e.g. against "- /a" it decides).
  out = access::EliminateRedundantRules(Rules("+ /a\n+ /a/b"));
  CHECK_EQ(out.size(), size_t{2});

  // Opposite sign is never dropped.
  out = access::EliminateRedundantRules(Rules("+ //b\n- /a/b"));
  CHECK_EQ(out.size(), size_t{2});

  // Different subject is never dropped.
  out = access::EliminateRedundantRules(Rules("+ u: //b\n+ v: /a/b"));
  CHECK_EQ(out.size(), size_t{2});

  // Equivalent rules keep the first.
  out = access::EliminateRedundantRules(Rules("+ /a//b\n+ /a//b"));
  CHECK_EQ(out.size(), size_t{1});

  // Elimination must not change any decision.
  const char* doc = "<a><b><c>1</c></b><d>2</d></a>";
  const char* rules = "+ /a\n+ /a/b\n- /a/b/c\n+ //c\n- /a/d\n- /a/d";
  auto full = Rules(rules);
  auto reduced = access::EliminateRedundantRules(full);
  CHECK(reduced.size() < full.size());
  xml::SerializingHandler s1, s2;
  access::RuleEvaluator e1(full, &s1);
  access::RuleEvaluator e2(reduced, &s2);
  CHECK_OK(xml::SaxParser::Parse(doc, &e1));
  CHECK_OK(xml::SaxParser::Parse(doc, &e2));
  CHECK_OK(e1.Finish());
  CHECK_OK(e2.Finish());
  CHECK_EQ(s1.output(), s2.output());
}

}  // namespace
