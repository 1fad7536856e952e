module spjoin/bench

go 1.22

require spjoin v0.0.0

replace spjoin => ../
