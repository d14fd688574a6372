// Property-based tests for the snapshot engine: generate randomized heap
// graphs (with sharing, cycles, typed arrays, closures, DOM references),
// snapshot them, restore into a fresh realm, and verify deep structural
// equality — including identity relations (shared references stay shared,
// distinct ones stay distinct).
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "src/jsvm/lexer.h"
#include "src/jsvm/parser.h"
#include "src/jsvm/snapshot.h"
#include "src/jsvm/snapshot_diff.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace offload::jsvm {
namespace {

// ----------------------------------------------------------- random graphs

/// Builds a random value graph directly in a realm. Kept small per case;
/// the sweep runs many seeds.
class GraphGenerator {
 public:
  GraphGenerator(Interpreter& interp, std::uint64_t seed)
      : interp_(interp), rng_(seed, 0x67656e65726174ULL) {}

  void build(int num_globals) {
    // A pool of heap values to create sharing and cycles across globals.
    const int pool_size = 3 + static_cast<int>(rng_.next_below(6));
    for (int i = 0; i < pool_size; ++i) {
      pool_.push_back(make_value(2));
    }
    // Retro-link random pool objects to each other (cycles).
    for (int i = 0; i < pool_size; ++i) {
      if (auto* obj = std::get_if<ObjectPtr>(&pool_[static_cast<std::size_t>(
              i)])) {
        if (rng_.chance(0.5)) {
          (*obj)->set("link",
                      pool_[rng_.next_below(static_cast<std::uint32_t>(
                          pool_.size()))]);
        }
      }
    }
    for (int g = 0; g < num_globals; ++g) {
      interp_.globals()->declare("g" + std::to_string(g), make_value(3));
    }
  }

 private:
  Value make_value(int depth) {
    // Reuse pool values often to exercise shared references.
    if (depth < 3 && rng_.chance(0.3) && !pool_.empty()) {
      return pool_[rng_.next_below(static_cast<std::uint32_t>(pool_.size()))];
    }
    switch (depth <= 0 ? rng_.next_below(6) : rng_.next_below(9)) {
      case 0:
        return Undefined{};
      case 1:
        return Null{};
      case 2:
        return rng_.chance(0.5);
      case 3:
        // Mix integers, fractions, negatives, extremes.
        switch (rng_.next_below(4)) {
          case 0: return static_cast<double>(rng_.next_u32());
          case 1: return rng_.uniform(-1e6, 1e6);
          case 2: return rng_.uniform(-1e-6, 1e-6);
          default: return -0.0;
        }
      case 4: {
        std::string s;
        std::size_t len = rng_.next_below(12);
        for (std::size_t i = 0; i < len; ++i) {
          // Include quotes, backslashes, control chars.
          static const char alphabet[] =
              "ab\"\\\n\t\rz{}[]$_0; \x01\x1f";
          s.push_back(alphabet[rng_.next_below(sizeof(alphabet) - 1)]);
        }
        return s;
      }
      case 5: {
        auto ta = std::make_shared<TypedArray>();
        std::size_t len = rng_.next_below(8);
        for (std::size_t i = 0; i < len; ++i) {
          ta->data.push_back(static_cast<float>(rng_.uniform(-100, 100)));
        }
        return ta;
      }
      case 6: {
        auto obj = std::make_shared<Object>();
        std::size_t props = rng_.next_below(4);
        for (std::size_t i = 0; i < props; ++i) {
          obj->set("p" + std::to_string(i), make_value(depth - 1));
        }
        return obj;
      }
      case 7: {
        auto arr = std::make_shared<ArrayObj>();
        std::size_t n = rng_.next_below(5);
        for (std::size_t i = 0; i < n; ++i) {
          arr->elements.push_back(make_value(depth - 1));
        }
        return arr;
      }
      default: {
        // A closure over fresh state.
        int seed_n = static_cast<int>(rng_.next_below(100));
        std::string name = "mk" + std::to_string(counter_++);
        interp_.eval_program(
            "function " + name + "() { var n = " + std::to_string(seed_n) +
            "; return function(d) { n = n + d; return n; }; }");
        return interp_.eval_program(name + "();");
      }
    }
  }

  Interpreter& interp_;
  util::Pcg32 rng_;
  std::vector<Value> pool_;
  int counter_ = 0;
};

// ------------------------------------------------------------ deep compare

/// Structural equality with identity tracking: value graphs must be
/// isomorphic (same shapes AND same sharing).
class DeepComparer {
 public:
  bool equal(const Value& a, const Value& b) {
    if (a.index() != b.index()) return false;
    if (const auto* oa = std::get_if<ObjectPtr>(&a)) {
      const auto& ob = std::get<ObjectPtr>(b);
      if (!match_identity(oa->get(), ob.get())) return false;
      if (visited_.count(oa->get())) return true;
      visited_.insert(oa->get());
      if ((*oa)->properties.size() != ob->properties.size()) return false;
      for (std::size_t i = 0; i < (*oa)->properties.size(); ++i) {
        if ((*oa)->properties[i].first != ob->properties[i].first) {
          return false;
        }
        if (!equal((*oa)->properties[i].second, ob->properties[i].second)) {
          return false;
        }
      }
      return true;
    }
    if (const auto* aa = std::get_if<ArrayPtr>(&a)) {
      const auto& ab = std::get<ArrayPtr>(b);
      if (!match_identity(aa->get(), ab.get())) return false;
      if (visited_.count(aa->get())) return true;
      visited_.insert(aa->get());
      if ((*aa)->elements.size() != ab->elements.size()) return false;
      for (std::size_t i = 0; i < (*aa)->elements.size(); ++i) {
        if (!equal((*aa)->elements[i], ab->elements[i])) return false;
      }
      return true;
    }
    if (const auto* ta = std::get_if<TypedArrayPtr>(&a)) {
      const auto& tb = std::get<TypedArrayPtr>(b);
      if (!match_identity(ta->get(), tb.get())) return false;
      // Bit-exact float payloads.
      if ((*ta)->data.size() != tb->data.size()) return false;
      for (std::size_t i = 0; i < (*ta)->data.size(); ++i) {
        if (std::bit_cast<std::uint32_t>((*ta)->data[i]) !=
            std::bit_cast<std::uint32_t>(tb->data[i])) {
          return false;
        }
      }
      return true;
    }
    if (const auto* fa = std::get_if<FunctionPtr>(&a)) {
      const auto& fb = std::get<FunctionPtr>(b);
      if (!match_identity(fa->get(), fb.get())) return false;
      return (*fa)->source() == fb->source();
    }
    if (const auto* na = std::get_if<NativeFnPtr>(&a)) {
      return (*na)->registry_name ==
             std::get<NativeFnPtr>(b)->registry_name;
    }
    if (const auto* da = std::get_if<double>(&a)) {
      // NaN-safe bit comparison (snapshots round-trip bits).
      return std::bit_cast<std::uint64_t>(*da) ==
             std::bit_cast<std::uint64_t>(std::get<double>(b));
    }
    return values_equal(a, b);
  }

 private:
  /// Enforce isomorphism: a left node must always map to the same right
  /// node and vice versa.
  bool match_identity(const void* left, const void* right) {
    auto [it, fresh] = left_to_right_.try_emplace(left, right);
    if (!fresh && it->second != right) return false;
    auto [it2, fresh2] = right_to_left_.try_emplace(right, left);
    return fresh2 ? true : it2->second == left;
  }

  std::map<const void*, const void*> left_to_right_;
  std::map<const void*, const void*> right_to_left_;
  std::set<const void*> visited_;
};

bool globals_deep_equal(Interpreter& a, Interpreter& b) {
  DeepComparer cmp;
  const auto& slots_a = a.globals()->slots();
  for (const auto& [name, value] : slots_a) {
    if (a.is_ambient_binding(name, value)) continue;
    Value* vb = b.globals()->find(name);
    if (!vb) {
      ADD_FAILURE() << "global " << name << " missing after restore";
      return false;
    }
    if (!cmp.equal(value, *vb)) {
      ADD_FAILURE() << "global " << name << " differs after restore";
      return false;
    }
  }
  return true;
}

class SnapshotRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotRoundTrip, RandomHeapGraphSurvives) {
  Interpreter a;
  GraphGenerator gen(a, GetParam());
  gen.build(6);
  SnapshotResult snap = capture_snapshot(a);

  Interpreter b;
  restore_snapshot(b, snap.program);
  EXPECT_TRUE(globals_deep_equal(a, b)) << "seed=" << GetParam();

  // Round-trip stability: a second generation preserves it again.
  SnapshotResult snap2 = capture_snapshot(b);
  Interpreter c;
  restore_snapshot(c, snap2.program);
  EXPECT_TRUE(globals_deep_equal(b, c)) << "seed=" << GetParam();
  // And the writer is a fixed point after one hop: same state → same text.
  EXPECT_EQ(capture_snapshot(c).program, snap2.program);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(SnapshotProperty, ClosuresKeepWorkingAcrossGenerations) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Interpreter a;
    GraphGenerator gen(a, seed);
    gen.build(4);
    // Find any function-valued global and advance it on both sides.
    SnapshotResult snap = capture_snapshot(a);
    Interpreter b;
    restore_snapshot(b, snap.program);
    for (const auto& [name, value] : a.globals()->slots()) {
      if (!std::holds_alternative<FunctionPtr>(value)) continue;
      if (a.is_ambient_binding(name, value)) continue;
      // Skip the "mk*" maker declarations: they return fresh closures
      // (reference values that can't compare across realms). The g*
      // globals hold the stateful inner closures, which return numbers.
      if (name.rfind("mk", 0) == 0) continue;
      Value ra = a.eval_program(name + "(7);");
      Value rb = b.eval_program(name + "(7);");
      EXPECT_TRUE(values_equal(ra, rb))
          << "closure " << name << " diverged, seed=" << seed;
    }
  }
}

TEST(SnapshotProperty, ParserRejectsMutatedSnapshotsSafely) {
  // Corrupting snapshot text must raise ParseError/JsError, never crash
  // or silently mis-restore.
  Interpreter a;
  GraphGenerator gen(a, 5);
  gen.build(5);
  SnapshotResult snap = capture_snapshot(a);
  util::Pcg32 rng(1234);
  int threw = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = snap.program;
    // Flip one character to something hostile.
    std::size_t pos = rng.next_below(
        static_cast<std::uint32_t>(mutated.size()));
    static const char junk[] = "\"{}()\\;@#";
    mutated[pos] = junk[rng.next_below(sizeof(junk) - 1)];
    Interpreter b;
    try {
      b.eval_program(mutated, "mutated-snapshot");
    } catch (const ParseError&) {
      ++threw;
    } catch (const JsError&) {
      ++threw;
    }
  }
  // Most single-character mutations must be caught (some flips are
  // semantically harmless, e.g. inside string payloads).
  EXPECT_GT(threw, 10);
}

TEST(SnapshotProperty, SpecialFloatsRoundTrip) {
  Interpreter a;
  a.eval_program(
      "var t = Float32Array(10); t[0] = 0; t[1] = -0.0; "
      "t[2] = 1e38; t[3] = -1e-38; t[4] = 3.4028235e38; t[5] = 1.4e-45; "
      "t[6] = 0/0; t[7] = -(0/0); t[8] = 1/0; t[9] = -1/0; "
      "var nan = 0/0; var neg_nan = -(0/0); var inf = 1/0; var ninf = -1/0;");
  auto ta = std::get<TypedArrayPtr>(*a.globals()->find("t"));
  ASSERT_TRUE(std::isnan(ta->data[6]) && std::isnan(ta->data[7]));
  ASSERT_NE(std::signbit(ta->data[6]), std::signbit(ta->data[7]));
  SnapshotResult snap = capture_snapshot(a);
  Interpreter b;
  restore_snapshot(b, snap.program);
  auto tb = std::get<TypedArrayPtr>(*b.globals()->find("t"));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(ta->data[i]),
              std::bit_cast<std::uint32_t>(tb->data[i]))
        << "slot " << i;
  }
  for (const char* name : {"nan", "neg_nan", "inf", "ninf"}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  std::get<double>(*a.globals()->find(name))),
              std::bit_cast<std::uint64_t>(
                  std::get<double>(*b.globals()->find(name))))
        << name;
  }
  // The restored realm captures to the same text.
  EXPECT_EQ(capture_snapshot(b).program, snap.program);

  // A canvas whose pixels change after the baseline travels as a DOM
  // content diff, always as __f32 text.
  Interpreter client;
  client.eval_program(
      "var c = document.createElement('canvas'); "
      "document.body.appendChild(c); c.setImageData(Float32Array(4));");
  Interpreter server;
  restore_snapshot(server, capture_snapshot(client).program);
  RealmFingerprint baseline = fingerprint_realm(client);
  client.eval_program(
      "var px = c.getImageData(); px[0] = 0/0; px[1] = 1/0; px[2] = -1/0; "
      "px[3] = -(0/0); px = undefined;");
  DiffSnapshotResult diff = capture_snapshot_diff(client, baseline);
  ASSERT_FALSE(diff.full_fallback);
  server.eval_program(diff.program, "diff");
  const auto& sent =
      std::get<DomNodePtr>(*client.globals()->find("c"))->canvas_data->data;
  const auto& got =
      std::get<DomNodePtr>(*server.globals()->find("c"))->canvas_data->data;
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(sent[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << "pixel " << i;
  }
}

TEST(SnapshotProperty, HostileStringsRoundTrip) {
  Interpreter a;
  std::vector<std::string> cases = {
      "", "\"", "\\", "\\\"", "\n\t\r", std::string(1, '\0'),
      "'single'", "__o0", "(function(){})();", "\x01\x02\x1f",
      "ends with backslash\\",
  };
  auto arr = std::make_shared<ArrayObj>();
  for (const auto& s : cases) arr->elements.emplace_back(s);
  a.globals()->declare("strs", arr);
  SnapshotResult snap = capture_snapshot(a);
  Interpreter b;
  restore_snapshot(b, snap.program);
  auto rb = std::get<ArrayPtr>(*b.globals()->find("strs"));
  ASSERT_EQ(rb->elements.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(std::get<std::string>(rb->elements[i]), cases[i]) << i;
  }
}

class DiffProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiffProperty, RandomMutationThenDiffConverges) {
  // Build random state, replicate it, mutate the original randomly, then
  // diff-sync (or full-sync on fallback) and check fingerprints converge.
  Interpreter a;
  GraphGenerator gen(a, GetParam());
  gen.build(5);
  SnapshotResult snap = capture_snapshot(a);
  auto b = std::make_unique<Interpreter>();
  restore_snapshot(*b, snap.program);
  RealmFingerprint baseline = fingerprint_realm(a);

  // Random mutations through the language (so both heaps stay valid).
  util::Pcg32 rng(GetParam() * 977 + 3);
  const char* mutations[] = {
      "g0 = 42;",
      "g1 = {fresh: [1, 2, 3]};",
      "g2 = 'replaced';",
      "newGlobal = Float32Array([9.5]);",
      "g3 = g3;",  // no-op
  };
  int n = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < n; ++i) {
    a.eval_program(mutations[rng.next_below(5)]);
  }

  DiffSnapshotResult diff = capture_snapshot_diff(a, baseline);
  if (diff.full_fallback) {
    b = std::make_unique<Interpreter>();
    restore_snapshot(*b, diff.program);
  } else {
    b->eval_program(diff.program, "diff");
  }
  EXPECT_EQ(fingerprint_realm(a).version, fingerprint_realm(*b).version)
      << "seed=" << GetParam();
  EXPECT_TRUE(globals_deep_equal(a, *b)) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

// ------------------------------------------------ pinned full-snapshot text

/// A fixed corpus of realms whose full-snapshot text is pinned by FNV-1a
/// hash, so a writer refactor cannot change snapshot bytes unnoticed. The
/// constants were recorded with the recursive writer the iterative walk
/// replaced.
std::vector<std::pair<std::string, std::string>> pinned_corpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  auto capture = [&](const std::string& name, const std::string& setup,
                     SnapshotOptions options = {}) {
    Interpreter interp;
    interp.eval_program(setup);
    corpus.emplace_back(name, capture_snapshot(interp, options).program);
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Interpreter interp;
    GraphGenerator gen(interp, seed);
    gen.build(5);
    corpus.emplace_back("graph" + std::to_string(seed),
                        capture_snapshot(interp).program);
  }
  const std::string dom =
      "var hits = 0; "
      "var root = document.createElement('div'); root.id = 'root'; "
      "root.setAttribute('class', 'box'); document.body.appendChild(root); "
      "var label = document.createElement('span'); "
      "label.textContent = 'waiting'; root.appendChild(label); "
      "var canvas = document.createElement('canvas'); "
      "canvas.setImageData(Float32Array([0.5, -1.25, 3])); "
      "root.appendChild(canvas); "
      "var loose = document.createElement('p'); loose.textContent = 'away'; "
      "loose.appendChild(document.createElement('b')); "
      "root.addEventListener('go', function(e) { "
      "  hits = hits + e.detail.n; label.textContent = 'hit'; }); "
      "loose.addEventListener('tap', function(e) { hits = hits - 1; }); "
      "root.dispatchEvent('go', {n: 2, from: loose});";
  capture("dom", dom);
  capture("dom_no_events", dom, {.include_events = false});
  const std::string typed =
      "var t = Float32Array([1.5, -0, 1e-7, 3.4e38, 1/0, -1/0]); "
      "var u = Float32Array(4); "
      "var holder = {a: t, b: [t, u], c: Float32Array([])}; "
      "var nums = [0/0, 1/0, -1/0, -0, 1e300, 0.1];";
  capture("typed", typed);
  capture("typed_base64", typed, {.base64_typed_arrays = true});
  capture("closures",
          "function make(a) { var count = 0; "
          "  function inc(d) { count = count + d; "
          "    return function() { return count * a; }; } "
          "  return {inc: inc, peek: function() { return count; }}; } "
          "var m1 = make(2); var view = m1.inc(3); var m2 = make(5); "
          "var chain = (function() { var x = 1; return function() { "
          "  var y = x + 1; return function() { return x + y; }; }; })()();");
  return corpus;
}

TEST(SnapshotPin, FullSnapshotTextIsByteStable) {
  const std::map<std::string, std::uint64_t> expected = {
      {"graph1", 0x6d15cd2e68840c5aULL},
      {"graph2", 0xb6c17ec05d0931a5ULL},
      {"graph3", 0xac1d9cbaa67aed59ULL},
      {"graph4", 0x3aee761c7e882833ULL},
      {"graph5", 0x01d2bc2c645837eaULL},
      {"graph6", 0x4b2739747b866fbbULL},
      {"graph7", 0x4d035514ebcebad1ULL},
      {"graph8", 0xad40356675837073ULL},
      {"dom", 0x675ff86f57306cf1ULL},
      {"dom_no_events", 0xc33066bb7dc1436aULL},
      {"typed", 0x5264e8b7bd76d616ULL},
      {"typed_base64", 0xd6b315328e1a61a3ULL},
      {"closures", 0xd73c1fb87b83c9fdULL},
  };
  const auto corpus = pinned_corpus();
  EXPECT_EQ(corpus.size(), expected.size());
  for (const auto& [name, program] : corpus) {
    auto it = expected.find(name);
    ASSERT_NE(it, expected.end()) << name;
    EXPECT_EQ(util::fnv1a(program), it->second)
        << name << ": 0x" << std::hex << util::fnv1a(program);
  }
}

// --------------------------------------------------- number-list fast path

/// Random floats of every class the writer emits: zeros of both signs,
/// denormals, `1e-05`-style exponents, FLT_MAX, and arbitrary finite bits.
float random_float(util::Pcg32& rng) {
  switch (rng.next_below(8)) {
    case 0: return rng.chance(0.5) ? 0.0f : -0.0f;
    case 1: return std::numeric_limits<float>::denorm_min() *
                   static_cast<float>(1 + rng.next_below(1u << 20));
    case 2: return static_cast<float>(rng.uniform(-1e-4, 1e-4));
    case 3: return rng.chance(0.5) ? std::numeric_limits<float>::max()
                                   : std::numeric_limits<float>::lowest();
    case 4: return static_cast<float>(rng.next_below(100000)) -
                   50000.0f;
    case 5: return static_cast<float>(rng.uniform(-100, 100));
    default: {
      float f;
      do {
        f = std::bit_cast<float>(rng.next_u32());
      } while (!std::isfinite(f));
      return f;
    }
  }
}

std::string float_text(float f) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), f);
  return std::string(buf, ptr);
}

/// `[e0,e1,...]` with random `,`/whitespace separators; `(e)` per element
/// when `parenthesized`, which keeps the list on the generic path.
std::string list_text(const std::vector<std::string>& elements,
                      const std::vector<std::string>& separators,
                      bool parenthesized) {
  std::string out = "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i) out += separators[i];
    out += parenthesized ? "(" + elements[i] + ")" : elements[i];
  }
  return out + "]";
}

class NumberListProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NumberListProperty, FastPathMatchesGenericPath) {
  util::Pcg32 rng(GetParam(), 0x6c697374ULL);
  const std::size_t n = 1 + rng.next_below(300);
  static const char* const kSeparators[] = {",", ", ", " ,", ",\n", " , "};
  std::vector<std::string> elements;
  std::vector<std::string> separators;
  for (std::size_t i = 0; i < n; ++i) {
    elements.push_back(float_text(random_float(rng)));
    separators.push_back(kSeparators[rng.next_below(5)]);
  }
  const std::string fast = list_text(elements, separators, false);
  const std::string generic = list_text(elements, separators, true);

  // The two spellings really take the two paths.
  auto init_arg = [](const ProgramPtr& program) -> const Expr& {
    const auto& decl =
        static_cast<const VarDeclStmt&>(*program->statements.front());
    return *static_cast<const CallExpr&>(*decl.init).args.front();
  };
  EXPECT_EQ(init_arg(parse_program("var t = __f32(" + fast + ");")).kind,
            ExprKind::kNumberList);
  EXPECT_EQ(init_arg(parse_program("var t = __f32(" + generic + ");")).kind,
            ExprKind::kArray);

  Interpreter interp;
  interp.eval_program("var t1 = __f32(" + fast + "); var t2 = __f32(" +
                      generic + "); var a1 = " + fast + "; var a2 = " +
                      generic + ";");
  const auto& t1 = std::get<TypedArrayPtr>(*interp.globals()->find("t1"));
  const auto& t2 = std::get<TypedArrayPtr>(*interp.globals()->find("t2"));
  ASSERT_EQ(t1->data.size(), n);
  ASSERT_EQ(t2->data.size(), n);
  const auto& a1 = std::get<ArrayPtr>(*interp.globals()->find("a1"));
  const auto& a2 = std::get<ArrayPtr>(*interp.globals()->find("a2"));
  ASSERT_EQ(a1->elements.size(), n);
  ASSERT_EQ(a2->elements.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(t1->data[i]),
              std::bit_cast<std::uint32_t>(t2->data[i]))
        << elements[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(std::get<double>(a1->elements[i])),
              std::bit_cast<std::uint64_t>(std::get<double>(a2->elements[i])))
        << elements[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumberListProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace offload::jsvm
