module knnjoin/bench

go 1.24

require knnjoin v0.0.0

replace knnjoin => ../
