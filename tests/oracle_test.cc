// Differential tests against an independent oracle. Seeded random documents
// and rule sets over XP{[],*,//} (nested and comparison predicates, deep
// chains with descendant-axis rules and predicated targets at many levels)
// are evaluated four ways, and the serialized views must agree byte for
// byte:
//
//  - ReferenceView (tests/reference_view.h): a naive DOM statement of the
//    paper's Section 3 semantics, sharing only the XPath AST;
//  - the direct SAX pass through access::RuleEvaluator;
//  - the same pass over the containment-minimized rule set;
//  - a cold TCSBR DocumentService serve with skipping on and a small
//    pending budget, so skips and deferrals fire.
//
// ctest runs a bounded number of pairs; `oracle_test --soak N` runs N.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "index/variants.h"
#include "pipeline/secure_pipeline.h"
#include "reference_view.h"
#include "serve_fixtures.h"
#include "testing.h"
#include "xml/node.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;           // NOLINT
using namespace csxa::testing;  // NOLINT

constexpr int kDefaultPairs = 2000;

int PairCount() {
  const auto& args = Args();
  for (size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] != "--soak") continue;
    char* end = nullptr;
    const long n = std::strtol(args[i + 1].c_str(), &end, 10);
    const bool valid = *end == '\0' && n > 0 && n <= 100000000;
    CHECK(valid);
    return valid ? static_cast<int>(n) : 0;
  }
  return kDefaultPairs;
}

/// splitmix64: the whole suite is a pure function of its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) {
    return static_cast<int>(Next() % static_cast<uint64_t>(n));
  }
  bool Chance(int percent) { return Below(100) < percent; }
  template <typename T, size_t N>
  const T& Pick(const T (&items)[N]) {
    return items[Below(static_cast<int>(N))];
  }

 private:
  uint64_t s_;
};

// Few tags so paths collide; values chosen to straddle the comparison
// literals both numerically and as strings.
const char* const kTags[] = {"a", "b", "c", "d"};
const char* const kValues[] = {"1", "2", "3", "10", "x", "y"};
const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};

/// Fills `n` with up to three children (elements or text, never two texts
/// in a row, which would merge on re-parse), recursing `levels` deep.
void Grow(xml::Node* n, int levels, Rng& rng) {
  const int slots = levels > 0 ? rng.Below(4) : rng.Below(2);
  bool last_text = false;
  for (int i = 0; i < slots; ++i) {
    if (!last_text && (levels == 0 || rng.Chance(30))) {
      n->AppendText(rng.Pick(kValues));
      last_text = true;
      continue;
    }
    if (levels == 0) break;
    Grow(n->AppendElement(rng.Pick(kTags)), levels - 1, rng);
    last_text = false;
  }
}

std::unique_ptr<xml::Node> RandomTree(Rng& rng) {
  auto root = xml::Node::Element(rng.Pick(kTags));
  Grow(root.get(), 1 + rng.Below(5), rng);
  return root;
}

/// A spine of `levels` nested elements; spine nodes carry text and small
/// side subtrees before and after the next spine node, so predicate
/// evidence arrives both ahead of and behind the nodes it decides.
std::unique_ptr<xml::Node> DeepChain(Rng& rng, int levels) {
  auto root = xml::Node::Element(rng.Pick(kTags));
  xml::Node* spine = root.get();
  for (int l = 1; l < levels; ++l) {
    if (rng.Chance(25)) spine->AppendText(rng.Pick(kValues));
    if (rng.Chance(30)) Grow(spine->AppendElement(rng.Pick(kTags)), 1, rng);
    xml::Node* next = spine->AppendElement(rng.Pick(kTags));
    if (rng.Chance(30)) Grow(spine->AppendElement(rng.Pick(kTags)), 1, rng);
    spine = next;
  }
  Grow(spine, 1, rng);
  return root;
}

std::string RandomStep(Rng& rng, int nesting);

/// `[relpath (op literal)?]`, the relative path one or two steps long.
std::string RandomPredicate(Rng& rng, int nesting) {
  std::string p = "[";
  if (rng.Chance(30)) p += "//";
  p += RandomStep(rng, nesting + 1);
  if (rng.Chance(25)) {
    p += rng.Chance(50) ? "/" : "//";
    p += RandomStep(rng, nesting + 1);
  }
  if (rng.Chance(60)) {
    p += std::string(" ") + rng.Pick(kOps) + " " + rng.Pick(kValues);
  }
  return p + "]";
}

std::string RandomStep(Rng& rng, int nesting) {
  std::string s = rng.Chance(15) ? "*" : rng.Pick(kTags);
  const int pred_percent = nesting == 0 ? 30 : 12;
  if (nesting < 2 && rng.Chance(pred_percent)) {
    s += RandomPredicate(rng, nesting);
  }
  return s;
}

std::string RandomRule(Rng& rng) {
  std::string r = rng.Chance(50) ? "+ " : "- ";
  const int steps = 1 + rng.Below(3);
  for (int i = 0; i < steps; ++i) {
    r += (i == 0 ? rng.Chance(60) : rng.Chance(50)) ? "//" : "/";
    r += RandomStep(rng, 0);
  }
  return r;
}

/// Rules aimed at deep chains: often a grant on the root, then
/// descendant-axis rules whose targets carry predicates, so targets (most
/// of them resolving false) sit at many levels of the chain.
std::string DeepRules(Rng& rng, const std::string& root_tag) {
  std::string rules;
  if (rng.Chance(60)) rules += "+ /" + root_tag + "\n";
  const int n = 1 + rng.Below(3);
  for (int i = 0; i < n; ++i) {
    rules += rng.Chance(50) ? "- //" : "+ //";
    rules += rng.Pick(kTags);
    rules += RandomPredicate(rng, 0) + "\n";
  }
  if (rng.Chance(50)) rules += RandomRule(rng) + "\n";
  return rules;
}

std::vector<access::AccessRule> Parse(const std::string& text) {
  auto rules = access::ParseRuleList(text);
  CHECK_OK(rules.status());
  return rules.ok() ? rules.take() : std::vector<access::AccessRule>{};
}

/// One cold TCSBR serve with skipping and a small pending budget.
Result<pipeline::ServeReport> Serve(
    const std::string& xml, const std::vector<access::AccessRule>& rules,
    uint64_t budget) {
  return ColdService(xml, index::Variant::kTcsbr, 256, 32)
      ->Serve("doc", rules, pipeline::ServeOptions(true, budget));
}

}  // namespace

TEST(ReferenceViewStatesSection3) {
  // The oracle itself, on hand-checked cases: propagation, the cascade of
  // more specific targets, denial at equal specificity, closed world,
  // structure preservation without text, and predicates over later
  // siblings.
  struct Case {
    const char* xml;
    const char* rules;
    const char* view;
  };
  const Case cases[] = {
      {"<r><a>x</a></r>", "", ""},
      {"<r><a>x</a><b><c>y</c></b></r>", "+ /r",
       "<r><a>x</a><b><c>y</c></b></r>"},
      {"<r><adm><name>j</name><ssn>1</ssn></adm><d>d</d></r>",
       "+ /r\n- /r/adm\n+ /r/adm/name",
       "<r><adm><name>j</name></adm><d>d</d></r>"},
      {"<r><x>v</x></r>", "+ /r/x\n- //x", ""},
      {"<r>top<a>hid<ok>yes</ok></a></r>", "+ //ok",
       "<r><a><ok>yes</ok></a></r>"},
      {"<r><an><cmt>x</cmt><type>G3</type></an></r>",
       "- //an[type = G3]/cmt\n+ /r", "<r><an><type>G3</type></an></r>"},
      {"<r><p><v>250</v></p><p><v>30</v></p></r>", "+ /r/p[v > 100]",
       "<r><p><v>250</v></p></r>"},
      {"<r><a><b><c>1</c></b></a></r>", "+ //a[b[c = 1]]",
       "<r><a><b><c>1</c></b></a></r>"},
  };
  for (const Case& c : cases) {
    auto dom = xml::SaxParser::ParseToDom(c.xml);
    CHECK_OK(dom.status());
    if (!dom.ok()) continue;
    CHECK_EQ(ReferenceView(*dom.value(), Parse(c.rules)), std::string(c.view));
  }
}

TEST(RandomPairsAgreeWithReference) {
  const int pairs = PairCount();
  Rng rng(0x5eed0c5a);
  int mismatches = 0, deep_pairs = 0;
  uint64_t skips = 0, deferrals = 0, rereads = 0;
  for (int i = 0; i < pairs && mismatches < 5; ++i) {
    const bool deep = i % 4 == 3;
    std::unique_ptr<xml::Node> dom =
        deep ? DeepChain(rng, 32 + rng.Below(17)) : RandomTree(rng);
    std::string rules_text;
    if (deep) {
      ++deep_pairs;
      rules_text = DeepRules(rng, dom->tag());
    } else {
      for (int r = 1 + rng.Below(4); r > 0; --r) {
        rules_text += RandomRule(rng) + "\n";
      }
    }
    const std::string xml = xml::Serialize(*dom);
    const std::vector<access::AccessRule> rules = Parse(rules_text);
    const uint64_t budget = i % 2 == 0 ? 0 : 48;

    const std::string expected = ReferenceView(*dom, rules);
    const std::string direct = DirectView(xml, rules);
    const std::string minimized =
        DirectView(xml, access::EliminateRedundantRules(rules));
    auto served = Serve(xml, rules, budget);
    CHECK_OK(served.status());
    const std::string serve_view = served.ok() ? served.value().view : "";
    if (served.ok()) {
      skips += served.value().drive.skips;
      deferrals += served.value().drive.deferrals;
      rereads += served.value().drive.rereads;
    }
    if (direct != expected || minimized != expected ||
        serve_view != expected) {
      ++mismatches;
      Fail(__FILE__, __LINE__,
           "pair " + std::to_string(i) + " budget " + std::to_string(budget) +
               "\n    xml:       " + xml + "\n    rules:\n" + rules_text +
               "    reference: " + expected + "\n    direct:    " + direct +
               "\n    minimized: " + minimized +
               "\n    served:    " + serve_view);
    }
  }
  std::printf("  %d pairs (%d deep), %llu skips, %llu deferrals, "
              "%llu rereads\n",
              pairs, deep_pairs, static_cast<unsigned long long>(skips),
              static_cast<unsigned long long>(deferrals),
              static_cast<unsigned long long>(rereads));
  // The serve side must actually exercise its skip and deferral paths.
  CHECK(skips > 0);
  CHECK(deferrals > 0);
  CHECK(rereads > 0);
}
