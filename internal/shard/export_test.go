package shard

// The external test package's oracle scenarios share these fixtures.
var ShardScheme, ShardTable = shardScheme, shardTable
