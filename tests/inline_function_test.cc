// InlineFunction: trivially relocatable captures, managed (non-trivial)
// captures, the heap fallback for oversized captures, and exact destructor
// accounting across moves, resets and move-assignment over a live target.

#include "src/sim/inline_function.h"

#include <array>
#include <memory>
#include <type_traits>
#include <utility>

#include "gtest/gtest.h"

namespace fragvisor {
namespace {

using Fn = InlineFunction<int()>;

// A non-trivial callable that counts its live instances in *live.
struct Tracked {
  int* live;
  int value;
  Tracked(int* l, int v) : live(l), value(v) { ++*live; }
  Tracked(const Tracked& o) : live(o.live), value(o.value) { ++*live; }
  Tracked(Tracked&& o) noexcept : live(o.live), value(o.value) { ++*live; }
  ~Tracked() { --*live; }
  int operator()() const { return value; }
};

TEST(InlineFunctionTest, TrivialCaptureMovesByCopyingTheBuffer) {
  int a = 3;
  int b = 4;
  const auto add = [pa = &a, b] { return *pa + b; };
  static_assert(std::is_trivially_copyable_v<decltype(add)>);

  Fn f = add;
  ASSERT_TRUE(f);
  EXPECT_EQ(f(), 7);

  Fn g = std::move(f);
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(f == nullptr);
  EXPECT_EQ(g(), 7);
  a = 10;  // the capture still points at `a`
  EXPECT_EQ(g(), 14);

  Fn h;
  EXPECT_FALSE(h);
  h = std::move(g);
  EXPECT_FALSE(g);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(h(), 14);

  h = nullptr;
  EXPECT_FALSE(h);
  h = nullptr;  // resetting an empty wrapper is a no-op
  EXPECT_FALSE(h);

  // Moving an empty wrapper yields an empty wrapper.
  Fn empty;
  Fn still_empty = std::move(empty);
  EXPECT_FALSE(still_empty);
}

TEST(InlineFunctionTest, TrivialCaptureMutatesItsOwnStateAcrossMoves) {
  Fn counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
  Fn moved = std::move(counter);
  EXPECT_EQ(moved(), 3);  // the relocated copy carries the mutated state
}

TEST(InlineFunctionTest, SharedPtrCaptureKeepsExactUseCount) {
  auto token = std::make_shared<int>(5);
  EXPECT_EQ(token.use_count(), 1);
  {
    Fn f = [token] { return *token; };
    EXPECT_EQ(token.use_count(), 2);
    Fn g = std::move(f);
    EXPECT_EQ(token.use_count(), 2);  // moved, not copied
    EXPECT_FALSE(f);                  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(g(), 5);
    Fn h;
    h = std::move(g);
    EXPECT_EQ(token.use_count(), 2);
    h = nullptr;
    EXPECT_EQ(token.use_count(), 1);
    h = [token] { return *token + 1; };
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(h(), 6);
  }
  EXPECT_EQ(token.use_count(), 1);  // the wrapper's destructor released it
}

TEST(InlineFunctionTest, NonTrivialCaptureIsDestroyedExactlyOnce) {
  int live = 0;
  {
    Fn f = Tracked(&live, 9);
    EXPECT_EQ(live, 1);  // the temporary is gone; one copy lives inline
    Fn g = std::move(f);
    EXPECT_EQ(live, 1);
    Fn h = std::move(g);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(h(), 9);
    h = nullptr;
    EXPECT_EQ(live, 0);
    h = Tracked(&live, 1);
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineFunctionTest, OversizedCaptureFallsBackToTheHeap) {
  struct Big {
    std::array<char, kInlineFunctionBytes + 1> pad{};
    std::shared_ptr<int> token;
    const void* operator()() const { return this; }
  };
  static_assert(sizeof(Big) > kInlineFunctionBytes);
  using AddrFn = InlineFunction<const void*()>;
  auto token = std::make_shared<int>(1);
  {
    AddrFn f = Big{{}, token};
    EXPECT_EQ(token.use_count(), 2);
    const void* where = f();
    AddrFn g = std::move(f);
    EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(g(), where);  // the target did not move: it lives on the heap
    EXPECT_EQ(token.use_count(), 2);
    g = nullptr;
    EXPECT_EQ(token.use_count(), 1);  // and is freed on reset
    g = Big{{}, token};
  }
  EXPECT_EQ(token.use_count(), 1);

  // An inline target, by contrast, moves with its wrapper.
  struct Small {
    const void* operator()() const { return this; }
  };
  AddrFn s = Small{};
  const void* before = s();
  AddrFn t = std::move(s);
  EXPECT_NE(t(), before);
}

TEST(InlineFunctionTest, MoveAssignOverALiveTargetDestroysItOnce) {
  int old_live = 0;
  int new_live = 0;
  Fn target = Tracked(&old_live, 1);
  Fn source = Tracked(&new_live, 2);
  ASSERT_EQ(old_live, 1);
  ASSERT_EQ(new_live, 1);
  target = std::move(source);
  EXPECT_EQ(old_live, 0);  // the old target died exactly once
  EXPECT_EQ(new_live, 1);  // the new one was relocated, not duplicated
  EXPECT_EQ(target(), 2);
  EXPECT_FALSE(source);  // NOLINT(bugprone-use-after-move)

  // A trivial target over a managed one, and back.
  int base = 40;
  target = [pb = &base] { return *pb + 2; };
  EXPECT_EQ(new_live, 0);
  EXPECT_EQ(target(), 42);
  Fn managed = Tracked(&new_live, 7);
  target = std::move(managed);
  EXPECT_EQ(new_live, 1);
  EXPECT_EQ(target(), 7);

  // Self-move-assignment leaves the target intact.
  Fn& alias = target;
  target = std::move(alias);
  EXPECT_EQ(new_live, 1);
  EXPECT_EQ(target(), 7);
}

}  // namespace
}  // namespace fragvisor
