//===- trace_test_alloc.cpp - Allocation counting for trace_test ----------===//
//
// Part of the ANEK reproduction. See README.md.
//
// Replaceable global new/delete, linked into trace_test only, so the
// off-mode zero-allocation contract is checked directly, not inferred.
// The nothrow forms are replaced too (std::stable_sort's temporary
// buffer uses them), so every allocation these deletes free came from
// malloc. They live in their own translation unit: defined beside the
// tests, GCC inlines them into every std::function manager there and
// flags each with -Wmismatched-new-delete.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

std::atomic<uint64_t> GlobalAllocations{0};

void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  GlobalAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *operator new(size_t Size) {
  if (void *P = ::operator new(Size, std::nothrow))
    return P;
  throw std::bad_alloc();
}

void *operator new[](size_t Size) { return ::operator new(Size); }
void *operator new[](size_t Size, const std::nothrow_t &Tag) noexcept {
  return ::operator new(Size, Tag);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
