module rips

go 1.24
