#include "file_system.hh"

#include "sim/checkpoint.hh"

#include "sim/logging.hh"

namespace softwatt
{

FileSystem::FileSystem(int block_bytes) : blockSize(block_bytes)
{
    if (block_bytes <= 0 || (block_bytes & (block_bytes - 1)) != 0)
        fatal("filesystem block size must be a power of two");
}

std::uint32_t
FileSystem::createFile(std::uint64_t size_bytes)
{
    FileInfo file;
    file.fileId = std::uint32_t(files.size());
    file.sizeBytes = size_bytes;
    file.firstBlock = nextBlock;
    std::uint64_t blocks =
        (size_bytes + std::uint64_t(blockSize) - 1) / blockSize;
    nextBlock += blocks > 0 ? blocks : 1;
    files.push_back(file);
    return file.fileId;
}

const FileInfo &
FileSystem::info(std::uint32_t file_id) const
{
    if (file_id >= files.size())
        fatal(msg() << "unknown file id " << file_id);
    return files[file_id];
}

std::uint64_t
FileSystem::blockOf(std::uint32_t file_id, std::uint64_t offset) const
{
    const FileInfo &file = info(file_id);
    return file.firstBlock + offset / std::uint64_t(blockSize);
}

void
FileSystem::saveState(ChunkWriter &out) const
{
    out.u64(nextBlock);
    out.u64(files.size());
    for (const FileInfo &file : files) {
        out.u32(file.fileId);
        out.u64(file.sizeBytes);
        out.u64(file.firstBlock);
    }
}

void
FileSystem::loadState(ChunkReader &in)
{
    nextBlock = in.u64();
    std::uint64_t count = in.u64();
    // Each file takes a u32 id and two u64s; a count the payload
    // cannot hold is damage, checked before the reserve.
    constexpr std::size_t fileBytes = 4 + 8 + 8;
    if (count > in.remaining() / fileBytes) {
        throw CheckpointError(msg() << "file system claims " << count
                                    << " files but only "
                                    << in.remaining()
                                    << " bytes remain");
    }
    files.clear();
    files.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        FileInfo file;
        file.fileId = in.u32();
        file.sizeBytes = in.u64();
        file.firstBlock = in.u64();
        files.push_back(file);
    }
}

FileCache::FileCache(std::size_t capacity_blocks)
    : capacityBlocks(capacity_blocks)
{
    if (capacity_blocks == 0)
        fatal("file cache must hold at least one block");
}

bool
FileCache::contains(std::uint64_t block)
{
    ++numLookups;
    auto it = map.find(block);
    if (it == map.end())
        return false;
    ++numHits;
    lru.splice(lru.begin(), lru, it->second);
    return true;
}

void
FileCache::insert(std::uint64_t block)
{
    auto it = map.find(block);
    if (it != map.end()) {
        lru.splice(lru.begin(), lru, it->second);
        return;
    }
    if (map.size() >= capacityBlocks) {
        Node victim = lru.back();
        if (victim.dirty)
            --dirtyCount;
        map.erase(victim.block);
        lru.pop_back();
    }
    lru.push_front(Node{block, false});
    map[block] = lru.begin();
}

void
FileCache::insertDirty(std::uint64_t block)
{
    insert(block);
    auto it = map.find(block);
    if (!it->second->dirty) {
        it->second->dirty = true;
        ++dirtyCount;
    }
}

void
FileCache::cleanAll()
{
    for (Node &node : lru)
        node.dirty = false;
    dirtyCount = 0;
}

void
FileCache::clear()
{
    lru.clear();
    map.clear();
    dirtyCount = 0;
}

void
FileCache::saveState(ChunkWriter &out) const
{
    out.u64(lru.size());
    for (const Node &node : lru) {  // front (MRU) to back (LRU)
        out.u64(node.block);
        out.b(node.dirty);
    }
    out.u64(numHits);
    out.u64(numLookups);
}

void
FileCache::loadState(ChunkReader &in)
{
    clear();
    std::uint64_t count = in.u64();
    if (count > capacityBlocks) {
        throw CheckpointError(
            msg() << "file cache holds " << count
                  << " blocks in the checkpoint but only "
                  << capacityBlocks << " fit");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        Node node;
        node.block = in.u64();
        node.dirty = in.b();
        if (node.dirty)
            ++dirtyCount;
        lru.push_back(node);
        map[node.block] = std::prev(lru.end());
    }
    numHits = in.u64();
    numLookups = in.u64();
}

} // namespace softwatt
