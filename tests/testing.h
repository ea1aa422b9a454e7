#ifndef CSXA_TESTS_TESTING_H_
#define CSXA_TESTS_TESTING_H_

// Minimal dependency-free test harness: TEST(name) registers a function;
// CHECK* macros record failures without aborting the test; main() runs
// every registered test and exits nonzero if any check failed.

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace csxa::testing {

struct TestCase {
  const char* name;
  std::function<void()> fn;
};

inline std::vector<TestCase>& Registry() {
  static std::vector<TestCase> tests;
  return tests;
}

inline int failures = 0;
inline const char* current_test = "";

/// The test binary's command-line arguments (argv[1..]), for suites with
/// manual-run knobs such as a larger iteration count.
inline std::vector<std::string>& Args() {
  static std::vector<std::string> args;
  return args;
}

struct Registrar {
  Registrar(const char* name, std::function<void()> fn) {
    Registry().push_back({name, std::move(fn)});
  }
};

template <typename T>
std::string Repr(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

inline void Fail(const char* file, int line, const std::string& msg) {
  ++failures;
  std::fprintf(stderr, "  FAIL %s:%d [%s] %s\n", file, line, current_test,
               msg.c_str());
}

}  // namespace csxa::testing

#define TEST(name)                                                       \
  static void test_##name();                                             \
  static ::csxa::testing::Registrar registrar_##name(#name, test_##name); \
  static void test_##name()

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) ::csxa::testing::Fail(__FILE__, __LINE__, #cond);    \
  } while (0)

#define CHECK_EQ(a, b)                                                     \
  do {                                                                     \
    auto va_ = (a);                                                        \
    auto vb_ = (b);                                                        \
    if (!(va_ == vb_)) {                                                   \
      ::csxa::testing::Fail(__FILE__, __LINE__,                            \
                            std::string(#a " == " #b "\n    lhs: ") +      \
                                ::csxa::testing::Repr(va_) +               \
                                "\n    rhs: " + ::csxa::testing::Repr(vb_)); \
    }                                                                      \
  } while (0)

#define CHECK_OK(expr)                                                    \
  do {                                                                    \
    auto st_ = (expr);                                                    \
    if (!st_.ok()) {                                                      \
      ::csxa::testing::Fail(__FILE__, __LINE__,                           \
                            std::string(#expr " not OK: ") +              \
                                st_.ToString());                          \
    }                                                                     \
  } while (0)

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) ::csxa::testing::Args().emplace_back(argv[i]);
  for (const auto& t : ::csxa::testing::Registry()) {
    ::csxa::testing::current_test = t.name;
    int before = ::csxa::testing::failures;
    t.fn();
    std::printf("[%s] %s\n",
                ::csxa::testing::failures == before ? "PASS" : "FAIL", t.name);
  }
  if (::csxa::testing::failures > 0) {
    std::printf("%d check(s) failed\n", ::csxa::testing::failures);
    return 1;
  }
  std::printf("all tests passed\n");
  return 0;
}

#endif  // CSXA_TESTS_TESTING_H_
