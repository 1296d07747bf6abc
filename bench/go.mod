module snet/bench

go 1.24

require snet v0.0.0

replace snet => ../
