module orbit/bench

go 1.24.0

require orbit v0.0.0

replace orbit => ../
