module hydranet/bench

go 1.22

require hydranet v0.0.0

replace hydranet => ../
