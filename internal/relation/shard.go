package relation

// Shard layout over the frozen columnar encoding. A shard is a contiguous
// range of whole ColData blocks — nothing is re-stored per shard: the shared
// per-column dictionaries and the column-major ID arrays are simply viewed
// in block-aligned row ranges, so shard-parallel kernels read the same
// immutable arrays the single-shard path does. Block alignment matters:
// selection bitsets pack 64 rows per word and kernels sweep BlockSize rows
// per inner loop, so workers writing disjoint shards never share a bitset
// word or split a block.

// ShardBlocks is the number of BlockSize blocks per shard: 16 blocks
// (16384 rows) keeps one shard's column comfortably in L2 while leaving
// enough shards per relation for the worker pool to balance.
const ShardBlocks = 16

// ShardRows is the default number of rows per shard.
const ShardRows = ShardBlocks * BlockSize
