#include "src/integrity/page_checksum.h"

#include <cstring>

namespace adios {
namespace {

// Finalizer from splitmix64: a bijection with full avalanche.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Odd 64-bit primes (xxHash64's), so multiplying by either is a bijection.
constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

// One lane round. Adding w * P2, rotating and multiplying by P1 are each a
// bijection, so the round is one in the lane state and in the word: a change
// to any word changes the lane's final value.
inline uint64_t LaneRound(uint64_t lane, uint64_t w) { return Rotl(lane + w * kP2, 31) * kP1; }

inline uint64_t Load64(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

}  // namespace

uint64_t PageChecksum(const void* data, size_t len, uint64_t seed) {
  // Fold the length in so a truncated page never collides with its prefix.
  uint64_t h = Mix64(seed ^ (0x517cc1b727220a95ull + len));
  const auto* p = static_cast<const unsigned char*>(data);
  size_t i = 0;
  if (len >= 32) {
    // Word k feeds lane k mod 4. The four chains are independent, so their
    // multiplies overlap instead of waiting on one serial chain.
    uint64_t l0 = h + kP1 + kP2;
    uint64_t l1 = h + kP2;
    uint64_t l2 = h;
    uint64_t l3 = h - kP1;
    for (; i + 32 <= len; i += 32) {
      l0 = LaneRound(l0, Load64(p + i));
      l1 = LaneRound(l1, Load64(p + i + 8));
      l2 = LaneRound(l2, Load64(p + i + 16));
      l3 = LaneRound(l3, Load64(p + i + 24));
    }
    // Chained in lane order: each step is a bijection in its lane.
    h = Mix64(h ^ l0);
    h = Mix64(h ^ l1);
    h = Mix64(h ^ l2);
    h = Mix64(h ^ l3);
  }
  // Words past the last full group of four, then the zero-padded partial
  // word, each through one chained mix round.
  for (; i + 8 <= len; i += 8) {
    h = Mix64(h ^ Load64(p + i));
  }
  if (i < len) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, len - i);
    h = Mix64(h ^ w);
  }
  return h;
}

}  // namespace adios
