//===- SummaryCache.cpp - On-disk/in-memory solve cache --------------------===//

#include "cache/SummaryCache.h"

#include "infer/SummaryIO.h"
#include "support/FaultInject.h"
#include "support/WireFormat.h"

#include <filesystem>
#include <sstream>
#include <string_view>
#include <utility>

using namespace anek;
using namespace anek::cache;

namespace fs = std::filesystem;

SummaryCache::SummaryCache(const std::string &Dir) {
  if (Dir.empty())
    return;
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  const fs::path Path = fs::path(Dir) / LogFileName;
  std::ostringstream Buf;
  Buf << std::ifstream(Path, std::ios::binary).rdbuf();
  const std::string Bytes = std::move(Buf).str();
  const std::string Header = std::string(LogFileName) + "\n";
  if (std::string_view(Bytes).substr(0, Header.size()) != Header) {
    // No log yet, or the header of another format: start a new log.
    Log.open(Path, std::ios::binary | std::ios::trunc);
    Log << Header << std::flush;
    return;
  }
  wire::Reader R(std::string_view(Bytes).substr(Header.size()));
  size_t Whole = Header.size();
  while (R.remaining() != 0) {
    uint64_t Key = 0;
    std::string Name, Blob;
    if (!R.u64(Key) || !R.str(Name) || !R.str(Blob, summaryio::MaxBlobBytes))
      break; // A torn or damaged tail: keep the records before it.
    Index[Name].insert(Key);
    Blobs[Key] = std::move(Blob);
    Whole = Bytes.size() - R.remaining();
  }
  if (Whole != Bytes.size())
    fs::resize_file(Path, Whole, Ec);
  Log.open(Path, std::ios::binary | std::ios::app);
}

CacheLookup SummaryCache::lookup(const std::string &MethodName, uint64_t Key,
                                 CachedSolve &Out) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(MethodName);
  if (It == Index.end())
    return CacheLookup::Miss;
  if (!It->second.count(Key)) {
    // Entries exist, but none under this content key: the method (or
    // something it transitively depends on, or the summary state it is
    // being solved against) changed since they were written.
    return CacheLookup::Invalidated;
  }
  std::string Blob = Blobs[Key];
  // The wire-corrupt control point at the `cache` site: flip one byte of
  // the read blob, exactly as disk rot would. The envelope checksum
  // rejects it below and the lookup degrades to a counted miss.
  if (faults::anyActive() &&
      faults::consumeFire(FaultKind::WireCorrupt, "cache") && !Blob.empty())
    Blob[Blob.size() / 2] ^= 0x20;
  Expected<CachedSolve> Decoded = summaryio::decodeCacheEntry(Blob, Key);
  if (!Decoded) {
    // Rot: drop the record, so a re-solve can store it afresh.
    It->second.erase(Key);
    if (It->second.empty())
      Index.erase(It);
    Blobs.erase(Key);
    return CacheLookup::Corrupt;
  }
  Out = Decoded.take();
  return CacheLookup::Hit;
}

void SummaryCache::store(const std::string &MethodName, uint64_t Key,
                         const CachedSolve &Entry) {
  std::string Blob = summaryio::encodeCacheEntry(Key, Entry);
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Index[MethodName].insert(Key).second)
    return; // Already stored (a warm run re-stores nothing).
  if (Log.is_open()) {
    // One write and a flush per record. A failed append is absorbed: the
    // record lives in memory only, and the next open cuts any torn tail.
    wire::Writer W;
    W.u64(Key);
    W.str(MethodName);
    W.str(Blob);
    const std::string Record = W.take();
    Log.write(Record.data(), static_cast<std::streamsize>(Record.size()));
    Log.flush();
  }
  Blobs[Key] = std::move(Blob);
}

size_t SummaryCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Blobs.size();
}
