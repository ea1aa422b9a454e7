#ifndef CSXA_TESTS_SERVE_FIXTURES_H_
#define CSXA_TESTS_SERVE_FIXTURES_H_

// Fixtures shared by the serve-level suites: the document key, the
// direct-SAX reference view every encrypted serve must reproduce, a text
// payload generator, and a service publishing one document with no shared
// digest cache, so that every serve starts cold.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "crypto/secure_store.h"
#include "index/variants.h"
#include "server/document_service.h"
#include "testing.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace csxa::testing {

inline crypto::TripleDes::Key TestKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0x5a ^ (i * 13));
  }
  return key;
}

/// The reference view: a plaintext SAX pass through the evaluator, with no
/// encoding, fetching or crypto.
inline std::string DirectView(const std::string& xml,
                              const std::vector<access::AccessRule>& rules) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules, &ser);
  CHECK_OK(xml::SaxParser::Parse(xml, &eval));
  CHECK_OK(eval.Finish());
  return ser.output();
}

/// `n` bytes of text starting with `stem` and `i`.
inline std::string Payload(const char* stem, int i, size_t n) {
  std::string s = std::string(stem) + "-" + std::to_string(i) + "-";
  while (s.size() < n) s += "loremipsum";
  s.resize(n);
  return s;
}

/// A service publishing `xml` as "doc" with `shared_cache_capacity` 0: no
/// shared digest cache, so every serve pays its own proofs.
inline std::unique_ptr<server::DocumentService> ColdService(
    const std::string& xml, index::Variant variant, uint32_t chunk_size,
    uint32_t fragment_size) {
  server::DocumentConfig cfg;
  cfg.variant = variant;
  cfg.layout.chunk_size = chunk_size;
  cfg.layout.fragment_size = fragment_size;
  cfg.key = TestKey();
  cfg.shared_cache_capacity = 0;
  auto service = std::make_unique<server::DocumentService>();
  CHECK_OK(service->Publish("doc", xml, cfg));
  return service;
}

}  // namespace csxa::testing

#endif  // CSXA_TESTS_SERVE_FIXTURES_H_
