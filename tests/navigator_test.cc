// Verified-window tests of the DocumentNavigator. Over a lazily verified
// fetch the navigator calls Fetcher::Ensure only when a read leaves the
// whole-fragment window its last call made valid, and decodes text a
// window at a time. None of that may change what it decodes, what it
// reports as read, or what crosses the wire: a fetcher-backed navigator
// must yield the in-memory navigator's item stream, bits_read() and
// trace(), every crossing must demand exactly what a reader of one byte
// at a time would, and the round trips and wire bytes of a fixed serve are
// pinned.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "bench/corpus.h"
#include "common/bitstream.h"
#include "common/bytes.h"
#include "crypto/secure_store.h"
#include "index/decoder.h"
#include "index/encoder.h"
#include "index/secure_fetcher.h"
#include "pipeline/authorized_view_reader.h"
#include "pipeline/secure_pipeline.h"
#include "serve_fixtures.h"
#include "testing.h"
#include "xml/sax_parser.h"

namespace {

using namespace csxa;           // NOLINT
using namespace csxa::testing;  // NOLINT
using Nav = index::DocumentNavigator;

struct Range {
  uint64_t begin;
  uint64_t end;
};

/// Forwards to a SecureFetcher and records every Ensure. Counts calls whose
/// range lies inside the previous call's window: the previous range
/// rounded out to whole fetcher units and clipped to the image, which the
/// whole-unit contract of Fetcher::Ensure guarantees valid.
class RecordingFetcher : public index::Fetcher {
 public:
  explicit RecordingFetcher(index::SecureFetcher* inner) : inner_(inner) {}

  Status Ensure(uint64_t begin, uint64_t end) override {
    if (!calls_.empty()) {
      const Range w = Window(calls_.back());
      if (begin >= w.begin && end <= w.end) ++redundant_;
    }
    calls_.push_back({begin, end});
    return inner_->Ensure(begin, end);
  }
  void HintWanted(uint64_t begin, uint64_t end) override {
    inner_->HintWanted(begin, end);
  }
  void HintExcluded(uint64_t begin, uint64_t end) override {
    inner_->HintExcluded(begin, end);
  }
  void HintStreamAll() override { inner_->HintStreamAll(); }
  uint64_t preferred_alignment() const override {
    return inner_->preferred_alignment();
  }
  uint64_t bytes_fetched() const override { return inner_->bytes_fetched(); }

  Range Window(Range r) const {
    const uint64_t a = inner_->preferred_alignment();
    return {r.begin / a * a,
            std::min<uint64_t>(inner_->size(), (r.end + a - 1) / a * a)};
  }
  const std::vector<Range>& calls() const { return calls_; }
  uint64_t redundant() const { return redundant_; }

 private:
  index::SecureFetcher* inner_;
  std::vector<Range> calls_;
  uint64_t redundant_ = 0;
};

/// A navigator over the encrypted store of `doc`, fetched lazily through
/// a recording decorator of the verified fetcher.
struct FetchedNav {
  FetchedNav(const std::vector<uint8_t>& image,
             const crypto::ChunkLayout& layout) {
    auto built = crypto::SecureDocumentStore::Build(image, TestKey(), layout);
    CHECK_OK(built.status());
    if (!built.ok()) return;
    store = std::make_unique<crypto::SecureDocumentStore>(built.take());
    soe = std::make_unique<crypto::SoeDecryptor>(
        TestKey(), layout, store->plaintext_size(), store->chunk_count());
    fetcher = std::make_unique<index::SecureFetcher>(store.get(), soe.get());
    recorder = std::make_unique<RecordingFetcher>(fetcher.get());
    auto opened = Nav::OpenBuffer(fetcher->verified_view(), recorder.get());
    CHECK_OK(opened.status());
    if (opened.ok()) nav = opened.take();
  }

  std::unique_ptr<crypto::SecureDocumentStore> store;
  std::unique_ptr<crypto::SoeDecryptor> soe;
  std::unique_ptr<index::SecureFetcher> fetcher;
  std::unique_ptr<RecordingFetcher> recorder;
  std::unique_ptr<Nav> nav;
};

std::string Dump(const Nav::Item& item) {
  std::string out = std::to_string(static_cast<int>(item.kind)) + " " +
                    std::to_string(item.depth) + " " +
                    std::to_string(item.tag_id) + " " + item.tag + " [" +
                    item.value + "] " + (item.has_desc ? "d" : "-");
  for (xml::TagId t : item.desc) out += "," + std::to_string(t);
  return out + " " + std::to_string(item.subtree_bits) + "@" +
         std::to_string(item.subtree_begin_bit) + "\n";
}

std::string TraceString(const Nav& nav) {
  std::string out;
  for (const index::ByteInterval& r : nav.trace()) {
    out += std::to_string(r.begin) + "-" + std::to_string(r.end) + " ";
  }
  return out;
}

/// Walks the whole stream, skipping every `skip_every`-th opened subtree
/// (0: none; ignored on TC streams). Returns the item dump.
std::string Walk(Nav* nav, int skip_every) {
  std::string out;
  int opens = 0;
  while (true) {
    auto item = nav->Next();
    CHECK_OK(item.status());
    if (!item.ok()) return out + "error";
    out += Dump(item.value());
    if (item.value().kind == Nav::ItemKind::kEnd) return out;
    if (item.value().kind != Nav::ItemKind::kOpen || skip_every == 0 ||
        !nav->CanSkip()) {
      continue;
    }
    ++opens;
    if (opens % skip_every == 0) {
      CHECK_OK(nav->SkipSubtree());
      out += "skip\n";
    }
  }
}

index::EncodedDocument EncodeXml(const std::string& xml,
                                 index::Variant variant) {
  auto dom = xml::SaxParser::ParseToDom(xml);
  CHECK_OK(dom.status());
  if (!dom.ok()) return {};
  auto doc = index::Encode(*dom.value(), variant);
  CHECK_OK(doc.status());
  return doc.ok() ? doc.take() : index::EncodedDocument{};
}

constexpr index::Variant kVariants[] = {
    index::Variant::kTc, index::Variant::kTcs, index::Variant::kTcsb,
    index::Variant::kTcsbr};

// ---------------------------------------------------------------------------

TEST(FetchedNavigatorMatchesInMemory) {
  crypto::ChunkLayout layout;
  layout.chunk_size = 1024;
  layout.fragment_size = 64;
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    bench::CorpusSpec spec;
    spec.family = family;
    spec.seed = 1;
    spec.target_bytes = 6 << 10;
    const std::string xml = bench::GenerateCorpus(spec).xml;
    for (index::Variant variant : kVariants) {
      const index::EncodedDocument doc = EncodeXml(xml, variant);
      for (int skip_every : {0, 3}) {
        auto mem = Nav::Open(&doc);
        CHECK_OK(mem.status());
        FetchedNav fetched(doc.bytes, layout);
        if (!mem.ok() || fetched.nav == nullptr) continue;
        const std::string label = std::string(bench::FamilyName(family)) +
                                  "/" + VariantName(variant) + "/skip" +
                                  std::to_string(skip_every);
        if (Walk(mem.value().get(), skip_every) !=
            Walk(fetched.nav.get(), skip_every)) {
          testing::Fail(__FILE__, __LINE__, label + ": item streams differ");
        }
        CHECK_EQ(mem.value()->bits_read(), fetched.nav->bits_read());
        CHECK_EQ(TraceString(*mem.value()), TraceString(*fetched.nav));
        // The window property: no Ensure the previous one already covered.
        CHECK_EQ(fetched.recorder->redundant(), uint64_t{0});
        // Per fragment, not per read: a forward walk leaves the window
        // at most once per fragment it touches.
        CHECK(fetched.recorder->calls().size() <=
              fetched.fetcher->bytes_fetched() / 64 + 8);
      }
    }
  }
}

// One fixed serve, pinned: the hospital corpus at 24 KiB, TCSBR, through
// AuthorizedViewReader with skip hints and a deferral budget, exactly as a
// service serve drives it; and the same document streamed without skips.
// The round trips and wire bytes are those of a navigator that called
// Ensure on every read.
TEST(FixedServeWireIsPinned) {
  bench::CorpusSpec spec;
  spec.family = bench::CorpusFamily::kHospital;
  spec.seed = 1;
  spec.target_bytes = 24 << 10;
  const std::string xml = bench::GenerateCorpus(spec).xml;
  const index::EncodedDocument doc = EncodeXml(xml, index::Variant::kTcsbr);
  auto rules = access::ParseRuleList(bench::RulesFor(
      bench::CorpusFamily::kHospital, bench::RuleFamily::kGuarded));
  CHECK_OK(rules.status());
  if (!rules.ok()) return;
  crypto::ChunkLayout layout;
  layout.chunk_size = 1024;
  layout.fragment_size = 64;

  struct Case {
    bool skip;
    uint64_t requests;
    uint64_t wire_bytes;
  };
  for (const Case& c : {Case{true, 26, 16908}, Case{false, 5, 17040}}) {
    FetchedNav fetched(doc.bytes, layout);
    if (fetched.nav == nullptr) return;
    access::RuleEvaluator::Options eval_options;
    eval_options.pending_buffer_budget = 1024;
    pipeline::AuthorizedViewReader reader(
        fetched.nav.get(), rules.value(), eval_options,
        pipeline::DriveOptions{c.skip, fetched.recorder.get()});
    std::string view_events;
    while (true) {
      auto item = reader.Next();
      CHECK_OK(item.status());
      if (!item.ok() || item.value().end) break;
      view_events += std::to_string(item.value().depth);
    }
    CHECK(!view_events.empty());
    CHECK_EQ(fetched.recorder->redundant(), uint64_t{0});
    CHECK_EQ(fetched.fetcher->requests(), c.requests);
    CHECK_EQ(fetched.fetcher->wire_bytes(), c.wire_bytes);
  }
}

// Text decoded a window at a time: aligned and unaligned payloads that
// cross many 8-byte fragments, including a payload whose last byte is the
// last byte of a short tail fragment. Every Ensure of the text phase must
// be exactly the demand a reader of one byte at a time would make when it
// leaves the window: [b, b+1) aligned, [b, b+2) unaligned.
TEST(BulkTextDemandsExactlyPerWindow) {
  crypto::ChunkLayout layout;
  layout.chunk_size = 64;
  layout.fragment_size = 8;
  int aligned = 0, unaligned = 0, tail_end = 0;
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      std::string xml = "<r><p>" + std::string(300, 'p') + "</p>";
      for (int i = 0; i < k; ++i) xml += "<a></a>";
      std::string text;
      for (int i = 0; i < 120 + j; ++i) {
        text.push_back(static_cast<char>('A' + (i * 7 + k) % 26));
      }
      xml += "<t>" + text + "</t></r>";
      const index::EncodedDocument doc =
          EncodeXml(xml, index::Variant::kTcsbr);

      // Locate the payload's bits with the in-memory navigator.
      auto mem = Nav::Open(&doc);
      CHECK_OK(mem.status());
      if (!mem.ok()) continue;
      uint64_t text_end_bit = 0;
      while (true) {
        auto item = mem.value()->Next();
        CHECK_OK(item.status());
        if (!item.ok() || item.value().kind == Nav::ItemKind::kEnd) break;
        if (item.value().value == text) {
          text_end_bit = mem.value()->Save().bit_pos;
        }
      }
      CHECK(text_end_bit != 0);
      const uint64_t start_bit = text_end_bit - 8 * text.size();
      const uint64_t shift = start_bit % 8;
      const uint64_t s = doc.stream_offset + start_bit / 8;
      const uint64_t width = shift == 0 ? 1 : 2;
      (shift == 0 ? aligned : unaligned) += 1;
      const uint64_t last = doc.stream_offset + (text_end_bit + 7) / 8;
      if (last == doc.bytes.size() && doc.bytes.size() % 8 != 0) ++tail_end;

      FetchedNav fetched(doc.bytes, layout);
      if (fetched.nav == nullptr) continue;
      while (true) {
        const size_t before = fetched.recorder->calls().size();
        auto item = fetched.nav->Next();
        CHECK_OK(item.status());
        if (!item.ok() || item.value().kind == Nav::ItemKind::kEnd) break;
        if (item.value().value != text) continue;
        // The text phase starts after the last call below the payload;
        // replay one-byte-at-a-time demands against the window.
        const std::vector<Range>& calls = fetched.recorder->calls();
        size_t first_text = before;
        while (first_text < calls.size() && calls[first_text].begin < s) {
          ++first_text;
        }
        CHECK(first_text > 0);
        if (first_text == 0) break;
        Range window = fetched.recorder->Window(calls[first_text - 1]);
        std::vector<Range> expected;
        for (uint64_t q = s; q < s + text.size(); ++q) {
          if (q >= window.begin && q + width <= window.end) continue;
          expected.push_back({q, q + width});
          window = fetched.recorder->Window(expected.back());
        }
        CHECK(!expected.empty());
        CHECK_EQ(calls.size() - first_text, expected.size());
        for (size_t i = 0; i < expected.size() && first_text + i < calls.size();
             ++i) {
          CHECK_EQ(calls[first_text + i].begin, expected[i].begin);
          CHECK_EQ(calls[first_text + i].end, expected[i].end);
        }
      }
      CHECK_EQ(fetched.nav->bits_read(), mem.value()->bits_read());
      CHECK_EQ(TraceString(*fetched.nav), TraceString(*mem.value()));
      CHECK_EQ(fetched.recorder->redundant(), uint64_t{0});
    }
  }
  CHECK(aligned > 0);
  CHECK(unaligned > 0);
  CHECK(tail_end > 0);
}

// A checkpoint re-entered after the window has moved on: the re-read lies
// outside the current window, so the navigator asks again, and the
// fetcher answers from fragments it already holds — no round trip.
TEST(SeekBackIntoEarlierWindow) {
  bench::CorpusSpec spec;
  spec.family = bench::CorpusFamily::kWsu;
  spec.seed = 1;
  spec.target_bytes = 6 << 10;
  const index::EncodedDocument doc =
      EncodeXml(bench::GenerateCorpus(spec).xml, index::Variant::kTcsbr);
  crypto::ChunkLayout layout;
  layout.chunk_size = 256;
  layout.fragment_size = 32;
  FetchedNav fetched(doc.bytes, layout);
  if (fetched.nav == nullptr) return;
  Nav* nav = fetched.nav.get();
  for (int i = 0; i < 5; ++i) CHECK_OK(nav->Next().status());
  const Nav::Checkpoint checkpoint = nav->Save();
  std::string first;
  for (int i = 0; i < 10; ++i) {
    auto item = nav->Next();
    CHECK_OK(item.status());
    if (item.ok()) first += Dump(item.value());
  }
  for (int i = 0; i < 300; ++i) CHECK_OK(nav->Next().status());
  CHECK(nav->Save().bit_pos / 8 > checkpoint.bit_pos / 8 + 4 * 32);

  const uint64_t requests = fetched.fetcher->requests();
  const size_t calls = fetched.recorder->calls().size();
  CHECK_OK(nav->SeekTo(checkpoint));
  std::string again;
  for (int i = 0; i < 10; ++i) {
    auto item = nav->Next();
    CHECK_OK(item.status());
    if (item.ok()) again += Dump(item.value());
  }
  CHECK_EQ(again, first);
  CHECK(fetched.recorder->calls().size() > calls);
  CHECK_EQ(fetched.fetcher->requests(), requests);
  CHECK_EQ(fetched.recorder->redundant(), uint64_t{0});
}

// A stream cut short fails as Corruption, in memory and over the fetch.
TEST(TruncatedStreamIsCorruption) {
  const std::string xml =
      "<r><a>" + std::string(200, 'x') + "</a><b><c>" +
      std::string(90, 'y') + "</c></b></r>";
  crypto::ChunkLayout layout;
  layout.chunk_size = 64;
  layout.fragment_size = 8;
  for (index::Variant variant : kVariants) {
    index::EncodedDocument doc = EncodeXml(xml, variant);
    doc.bytes.resize(doc.bytes.size() - 40);
    auto mem = Nav::Open(&doc);
    FetchedNav fetched(doc.bytes, layout);
    for (Nav* nav : {mem.ok() ? mem.value().get() : nullptr,
                     fetched.nav.get()}) {
      CHECK(nav != nullptr);
      if (nav == nullptr) continue;
      StatusCode code = StatusCode::kOk;
      for (int i = 0; i < 100 && code == StatusCode::kOk; ++i) {
        auto item = nav->Next();
        if (!item.ok()) code = item.status().code();
      }
      CHECK(code == StatusCode::kCorruption);
    }
  }
}

// A TC text length is a nibble varint of up to 64 bits. One claiming 2^59
// bytes in a stream of a few bytes must fail as Corruption before any
// allocation is sized from it.
TEST(HugeTextLengthIsCorruption) {
  index::EncodedDocument doc = EncodeXml("<a>x</a>", index::Variant::kTc);
  doc.bytes.resize(doc.stream_offset);
  BitWriter w;
  w.WriteBits(0b01, 2);  // element <a>
  w.WriteBits(0, BitsFor(doc.dictionary.size()));
  w.WriteBits(0b10, 2);  // text, length 2^59 = nibble 8 at position 14
  for (int group = 0; group < 14; ++group) {
    w.WriteBits(1, 1);
    w.WriteBits(0, 4);
  }
  w.WriteBits(0, 1);
  w.WriteBits(8, 4);
  w.WriteAlignedBytes(common::AsBytes("xyz"), 3);
  doc.bytes.insert(doc.bytes.end(), w.bytes().begin(), w.bytes().end());

  auto nav = Nav::Open(&doc);
  CHECK_OK(nav.status());
  if (!nav.ok()) return;
  auto open = nav.value()->Next();
  CHECK_OK(open.status());
  auto text = nav.value()->Next();
  CHECK(!text.ok());
  CHECK(text.status().code() == StatusCode::kCorruption);
}

// Authenticated but malformed images (an owner-side encoder bug): seeded
// bit flips, truncations and a random byte followed by 0xff, over every
// corpus family and variant, driven through Next() and random
// SkipSubtree() in memory and — every 8th mutation — over the verified
// fetch. Every outcome must be OK or Corruption, and no read may leave the
// image (the ASan/UBSan build is the referee for that).
StatusCode DriveToEnd(Nav* nav, std::mt19937_64* rng) {
  for (int step = 0; step < (1 << 16); ++step) {
    auto item = nav->Next();
    if (!item.ok()) return item.status().code();
    if (item.value().kind == Nav::ItemKind::kEnd) return StatusCode::kOk;
    if (item.value().kind == Nav::ItemKind::kOpen && nav->CanSkip() &&
        (*rng)() % 4 == 0) {
      Status skipped = nav->SkipSubtree();
      if (!skipped.ok()) return skipped.code();
    }
  }
  return StatusCode::kOk;
}

TEST(MalformedImagesFailAsCorruption) {
  constexpr int kMutationsPerVariant = 150;
  crypto::ChunkLayout layout;
  layout.chunk_size = 256;
  layout.fragment_size = 32;
  std::mt19937_64 rng(20040831);
  uint64_t corrupt = 0;
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    bench::CorpusSpec spec;
    spec.family = family;
    spec.seed = 1;
    spec.target_bytes = 3 << 10;
    const std::string xml = bench::GenerateCorpus(spec).xml;
    for (index::Variant variant : kVariants) {
      const index::EncodedDocument clean = EncodeXml(xml, variant);
      if (clean.bytes.empty()) continue;
      for (int m = 0; m < kMutationsPerVariant; ++m) {
        index::EncodedDocument doc = clean;
        std::vector<uint8_t>& bytes = doc.bytes;
        switch (m % 3) {
          case 0:  // One to four bit flips.
            for (uint64_t f = rng() % 4; f < 4; ++f) {
              bytes[rng() % bytes.size()] ^= uint8_t{1} << (rng() % 8);
            }
            break;
          case 1:  // Truncation.
            bytes.resize(rng() % bytes.size());
            break;
          default: {  // A random byte, then 0xff (long varints, big sizes).
            const size_t pos = rng() % bytes.size();
            bytes[pos] = static_cast<uint8_t>(rng());
            if (pos + 1 < bytes.size()) bytes[pos + 1] = 0xff;
          }
        }
        auto mem = Nav::Open(&doc);
        StatusCode code = mem.ok() ? DriveToEnd(mem.value().get(), &rng)
                                   : mem.status().code();
        if (m % 8 == 0 && !bytes.empty()) {
          auto store = crypto::SecureDocumentStore::Build(bytes, TestKey(),
                                                          layout);
          CHECK_OK(store.status());
          if (!store.ok()) continue;
          crypto::SoeDecryptor soe(TestKey(), layout,
                                   store.value().plaintext_size(),
                                   store.value().chunk_count());
          index::SecureFetcher fetcher(&store.value(), &soe);
          auto fetched = Nav::OpenBuffer(fetcher.verified_view(), &fetcher);
          const StatusCode fetched_code =
              fetched.ok() ? DriveToEnd(fetched.value().get(), &rng)
                           : fetched.status().code();
          if (fetched_code != StatusCode::kOk &&
              fetched_code != StatusCode::kCorruption) {
            code = fetched_code;
          }
        }
        if (code == StatusCode::kCorruption) ++corrupt;
        if (code != StatusCode::kOk && code != StatusCode::kCorruption) {
          testing::Fail(__FILE__, __LINE__,
                        std::string(bench::FamilyName(family)) + "/" +
                            VariantName(variant) + " mutation " +
                            std::to_string(m) + ": status code " +
                            std::to_string(static_cast<int>(code)));
        }
      }
    }
  }
  // The generator is not vacuous: mutations do get caught.
  CHECK(corrupt > 0);
}

}  // namespace
