module corun/bench/corunmark

go 1.22

require corun v0.0.0

replace corun => ../..
