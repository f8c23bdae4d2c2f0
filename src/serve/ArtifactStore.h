//===- ArtifactStore.h - On-disk compiled-artifact persistence --*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durable storage for compiled artifacts, so a restarted futharkcc-serve
/// process serves its former working set from disk instead of recompiling
/// it (the cold-start half of compile-once/serve-many).
///
/// A stored artifact is the complete CompileResult: the lowered device
/// program, the memory plan, the shard plan and the pass statistics, in a
/// versioned binary format.  Files are *named* by the pre-compile cache
/// key (artifactCacheKey: source + canonical options, computable without
/// compiling — the same key the in-memory cache uses), and *verified* by
/// the post-compile content hash: every load re-derives
/// CompileResult::fingerprint() from the decoded artifact and rejects the
/// file unless it reproduces the fingerprint recorded at save time.  A
/// flipped bit, a truncated write, or a format drift therefore degrades to
/// a recompile, never to serving a corrupt artifact.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_SERVE_ARTIFACTSTORE_H
#define FUTHARKCC_SERVE_ARTIFACTSTORE_H

#include "driver/Compiler.h"
#include "support/Error.h"

#include <cstdint>
#include <string>

namespace fut {
namespace serve {

/// Encodes the complete artifact (program, memory plan, shard plan, pass
/// statistics) into the versioned binary format, fingerprint first.
std::string serializeArtifact(const CompileResult &C);
/// The same, with \p C's fingerprint already computed by the caller.
std::string serializeArtifact(const CompileResult &C, uint64_t Fingerprint);

/// Decodes \p Bytes and verifies it: structural decode errors and a
/// fingerprint that fails to reproduce both come back as typed errors.  On
/// success the verified fingerprint is stored to \p Fingerprint if given.
ErrorOr<CompileResult> deserializeArtifact(const std::string &Bytes,
                                           uint64_t *Fingerprint = nullptr);

/// A directory of serialized artifacts, one file per cache key.  Pure
/// functions of (Dir, Key): the store keeps no state, so any number of
/// server instances may share a directory.
class ArtifactStore {
public:
  explicit ArtifactStore(std::string Dir) : Dir(std::move(Dir)) {}

  std::string pathFor(uint64_t Key) const;
  bool exists(uint64_t Key) const;

  /// Serializes and writes atomically (temp file + rename), creating the
  /// directory if needed.  Returns false on any I/O failure; persistence
  /// is an optimisation, so callers treat failure as "not stored".
  bool save(uint64_t Key, const CompileResult &C) const;
  /// The same, with \p C's fingerprint already computed by the caller.
  bool save(uint64_t Key, const CompileResult &C, uint64_t Fingerprint) const;

  /// Reads, decodes and fingerprint-verifies the artifact for \p Key.
  /// Its verified fingerprint is stored to \p Fingerprint if given.
  ErrorOr<CompileResult> load(uint64_t Key,
                              uint64_t *Fingerprint = nullptr) const;

private:
  std::string Dir;
};

} // namespace serve
} // namespace fut

#endif // FUTHARKCC_SERVE_ARTIFACTSTORE_H
