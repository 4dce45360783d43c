module oblivext/benchmark

go 1.24

require oblivext v0.0.0

replace oblivext => ../
