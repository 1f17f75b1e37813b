// Seeded 64-bit page checksum codec.
//
// Four independent lanes, one per word position mod 4, each a chain of
// multiply-rotate rounds from its own seed offset; the lanes then fold into
// the digest through a chained splitmix finalizer, and words past the last
// full group of four (plus a zero-padded partial word) mix in one at a time.
// Every step is a bijection in the word or state it takes, so a change to any
// single 8-byte word always changes the digest; the chains keep it
// order-sensitive, so a torn word or two swapped words change it too. This is
// a corruption *detector* (like the CRCs storage stacks keep per block), not
// a cryptographic MAC — the adversary is a bit flip, not an attacker.

#ifndef ADIOS_SRC_INTEGRITY_PAGE_CHECKSUM_H_
#define ADIOS_SRC_INTEGRITY_PAGE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace adios {

// Digest of `len` bytes at `data` under `seed`. Deterministic across runs
// and platforms (little-endian word loads via memcpy).
uint64_t PageChecksum(const void* data, size_t len, uint64_t seed);

}  // namespace adios

#endif  // ADIOS_SRC_INTEGRITY_PAGE_CHECKSUM_H_
